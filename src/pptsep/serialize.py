"""JSON file formats for states, ensembles, and canonical forms.

Complex numbers are stored as [re, im] pairs, matrices as row-major nested
lists of those pairs.  Floats round-trip exactly (shortest-repr encoding on
write, exact binary64 parse on read), so save -> load is the identity and a
given object always serializes to the same bytes.  The writer streams each
array to the file row by row, and the bytes are those of
json.dumps(document, indent=2) on the nested-list form plus a final newline.

StateFile:    {"schema_version": "1", "kind": "state", "dims": [K, M, N],
               "matrix": [[[re, im], ...], ...], "metadata": {str: str}?}
EnsembleFile: {"schema_version": "1", "kind": "ensemble", "dims": [K, M, N],
               "terms": [{"p": w, "vecA": [[re, im], ...], "vecB": ..., "vecC": ...}, ...]}
FormFile:     {"schema_version": "1", "kind": "canonical_form", "dims": [K, M, N],
               "a_list": [matrix, ...], "b_list": [matrix, ...], "f": matrix,
               "local_u_a": matrix, "local_u_b": matrix}
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .canonical import CanonicalForm
from .ensembles import EnsembleTerm, SeparableEnsemble
from .linalg import TRACE_FLOOR, TripartiteDims, TripartiteState

SCHEMA_VERSION = "1"


def _complex_array(obj, name: str, ndim: int) -> np.ndarray:
    """The complex array of ndim axes (1, a vector, or 2, a matrix) stored as [re, im] pairs."""
    arr = np.asarray(obj)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name}: entries must be numbers")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(f"{name}: complex entries must be [re, im] pairs")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entry")
    if arr.ndim - 1 != ndim:
        what = "a 1-D vector" if ndim == 1 else "a 2-D matrix"
        raise ValueError(f"{name}: expected {what}, got {arr.ndim - 1} axes")
    return arr[..., 0] + 1j * arr[..., 1]


def _has_bool_literal(text: str) -> bool:
    """Whether the JSON text contains the word true or false anywhere.

    Each word is looked for at the hits of one of its letters ('u', 'l'),
    which str.find locates with memchr: a file of numbers holds them only in
    its few keys and strings, and a 6.5 MB state file is scanned in well under
    a millisecond, where a substring search for each word takes about 5 ms.
    """
    for word, letter in (("true", "u"), ("false", "l")):
        at = word.index(letter)
        i = text.find(letter, at)
        while i >= 0:
            if text.startswith(word, i - at):
                return True
            i = text.find(letter, i + 1)
    return False


def _reject_bool_entries(doc: dict, path) -> None:
    """Raise ValueError for a JSON true/false inside any array of the document.

    numpy promotes a bool mixed with numbers to a number ([true, 0] becomes
    [1, 0]), so the array readers cannot see one.  No array of the three
    schemas holds bools; metadata, which no loader reads, is not searched.
    """
    stack = [value for key, value in doc.items() if key != "metadata"]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, list):
            if any(type(v) is bool for v in obj):
                raise ValueError(f"{path}: entries must be numbers, not true or false")
            stack.extend(v for v in obj if isinstance(v, (dict, list)))


def _load_document(path, kind: str) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    if doc.get("kind") != kind:
        raise ValueError(f"{path}: file kind is {doc.get('kind')!r}, expected {kind!r}")
    if _has_bool_literal(text):
        _reject_bool_entries(doc, path)
    return doc


def _parse_dims(doc: dict, path) -> TripartiteDims:
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(isinstance(d, int) for d in dims)):
        raise ValueError(f"{path}: dims must be a list of three integers")
    return TripartiteDims(*dims)


def _write_pairs(out, vec: np.ndarray, indent: int) -> None:
    """Write the [re, im] pairs of a complex vector as json list items at this indent."""
    vals = vec.view(float).tolist()
    if np.isfinite(vec).all():
        spec = "%r"  # float.__repr__, the encoding json uses for finite floats
    else:
        spec, vals = "%s", [json.dumps(v) for v in vals]  # NaN, Infinity, -Infinity
    pad, inner = " " * indent, " " * (indent + 2)
    pair = f"{pad}[\n{inner}{spec},\n{inner}{spec}\n{pad}]"
    out.write(",\n".join([pair] * len(vec)) % tuple(vals))


def _write_array(out, arr: np.ndarray, indent: int) -> None:
    """Write a complex array as json.dumps(indent=2) lays out its nested [re, im] lists.

    indent is that of the line the opening bracket is written on.
    """
    if len(arr) == 0:
        out.write("[]")
        return
    out.write("[\n")
    if arr.ndim == 1:
        _write_pairs(out, arr, indent + 2)
    else:
        for i, sub in enumerate(arr):
            out.write((",\n" if i else "") + " " * (indent + 2))
            _write_array(out, sub, indent + 2)
    out.write("\n" + " " * indent + "]")


def _dump(doc: dict, path) -> None:
    """Write doc, whose complex arrays are numpy arrays, as indented JSON.

    The skeleton is json.dumps(doc, indent=2) with each array encoded as null;
    every other value of a document is a string, a number or a container, so
    a line that ends in null is exactly the place of the next array.
    """
    arrays = []

    def hole(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(np.ascontiguousarray(obj, dtype=complex))

    skeleton = json.dumps(doc, indent=2, default=hole)
    arrays = iter(arrays)
    with Path(path).open("w") as out:
        for line in skeleton.split("\n"):
            comma = line.endswith("null,")
            if comma or line.endswith("null"):
                out.write(line[: -5 if comma else -4])
                _write_array(out, next(arrays), len(line) - len(line.lstrip(" ")))
                out.write(",\n" if comma else "\n")
            else:
                out.write(line + "\n")


def save_state(state: TripartiteState, path, metadata: dict | None = None) -> None:
    """Write a StateFile.  metadata, if given, must be a flat str -> str map."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "state",
        "dims": list(state.dims.as_tuple()),
        "matrix": state.rho,
    }
    if metadata:
        doc["metadata"] = {str(k): str(v) for k, v in metadata.items()}
    _dump(doc, path)


def load_state(path, allow_unnormalized: bool = False) -> TripartiteState:
    """Read a StateFile.

    The matrix must be Hermitian with unit trace; with allow_unnormalized=True
    a non-unit (but nonzero) trace is rescaled away instead of rejected.
    """
    doc = _load_document(path, "state")
    dims = _parse_dims(doc, path)
    mat = _complex_array(doc.get("matrix"), f"{path}: matrix", 2)
    if mat.shape != (dims.total, dims.total):
        raise ValueError(
            f"{path}: matrix shape {mat.shape} does not match dims {dims.as_tuple()}"
        )
    if allow_unnormalized:
        tr = complex(mat.trace())
        if abs(tr) < TRACE_FLOOR:
            raise ValueError(f"{path}: trace {tr:.3g} too small to normalize away")
        mat = mat / tr.real
    return TripartiteState(dims, mat)


def save_ensemble(ensemble: SeparableEnsemble, path) -> None:
    """Write an EnsembleFile."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ensemble",
        "dims": list(ensemble.dims.as_tuple()),
        "terms": [
            {
                "p": float(t.p),
                "vecA": t.vec_a,
                "vecB": t.vec_b,
                "vecC": t.vec_c,
            }
            for t in ensemble.terms
        ],
    }
    _dump(doc, path)


def load_ensemble(path) -> SeparableEnsemble:
    """Read an EnsembleFile.

    Only structure is validated here; semantic properties (weights summing to
    one, unit vectors, reconstruction) are the business of verify_ensemble, so
    a deliberately broken ensemble still loads and can be checked.
    """
    doc = _load_document(path, "ensemble")
    dims = _parse_dims(doc, path)
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, list):
        raise ValueError(f"{path}: terms must be a list")
    terms = []
    for i, rt in enumerate(raw_terms):
        if not isinstance(rt, dict):
            raise ValueError(f"{path}: term {i} must be an object")
        try:
            p = np.asarray(rt["p"])
            vec_a = _complex_array(rt["vecA"], f"{path}: term {i} vecA", 1)
            vec_b = _complex_array(rt["vecB"], f"{path}: term {i} vecB", 1)
            vec_c = _complex_array(rt["vecC"], f"{path}: term {i} vecC", 1)
        except KeyError as e:
            raise ValueError(f"{path}: term {i} missing field {e}") from None
        if p.ndim or p.dtype.kind not in "iuf" or not np.isfinite(p):
            raise ValueError(f"{path}: term {i} p must be a finite number")
        if vec_a.shape != (dims.k,) or vec_b.shape != (dims.m,) or vec_c.shape != (dims.n,):
            raise ValueError(f"{path}: term {i} vector shapes do not match dims")
        terms.append(EnsembleTerm(p=float(p), vec_a=vec_a, vec_b=vec_b, vec_c=vec_c))
    return SeparableEnsemble(dims=dims, terms=tuple(terms))


def save_canonical_form(form: CanonicalForm, path) -> None:
    """Write a FormFile (ground-truth sibling of generated canonical states)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "canonical_form",
        "dims": list(form.dims.as_tuple()),
        "a_list": form.a_list,
        "b_list": form.b_list,
        "f": form.f,
        "local_u_a": form.local_u_a,
        "local_u_b": form.local_u_b,
    }
    _dump(doc, path)


def load_canonical_form(path) -> CanonicalForm:
    """Read a FormFile."""
    doc = _load_document(path, "canonical_form")
    dims = _parse_dims(doc, path)

    def matrices(key):
        gens = doc.get(key, [])
        if not isinstance(gens, list):
            raise ValueError(f"{path}: {key} must be a list")
        return tuple(_complex_array(g, f"{path}: {key}[{i}]", 2) for i, g in enumerate(gens))

    return CanonicalForm(
        dims=dims,
        a_list=matrices("a_list"),
        b_list=matrices("b_list"),
        f=_complex_array(doc.get("f"), f"{path}: f", 2),
        local_u_a=_complex_array(doc.get("local_u_a"), f"{path}: local_u_a", 2),
        local_u_b=_complex_array(doc.get("local_u_b"), f"{path}: local_u_b", 2),
    )
