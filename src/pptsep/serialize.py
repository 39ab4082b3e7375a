"""JSON file formats for states, ensembles, and canonical forms.

Complex numbers are stored as [re, im] pairs, matrices as row-major nested
lists of those pairs.  Floats round-trip exactly (shortest-repr encoding on
write, exact binary64 parse on read), so save -> load is the identity and a
given object always serializes to the same bytes.

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


def _to_pairs(arr) -> list:
    """Nested lists with each complex entry as an [re, im] pair of Python floats."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _pairs_to_complex(obj, name: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(f"{name}: complex entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    mat = _pairs_to_complex(obj, name)
    if mat.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D matrix, got {mat.ndim} axes")
    return mat


def vector_from_json(obj, name: str = "vector") -> np.ndarray:
    vec = _pairs_to_complex(obj, name)
    if vec.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D vector, got {vec.ndim} axes")
    return vec


def _load_document(path, kind: str) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    if doc.get("kind") != kind:
        raise ValueError(f"{path}: file kind is {doc.get('kind')!r}, expected {kind!r}")
    return doc


def _parse_dims(doc: dict, path) -> TripartiteDims:
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(isinstance(d, int) for d in dims)):
        raise ValueError(f"{path}: dims must be a list of three integers")
    return TripartiteDims(*dims)


def _dump(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def save_state(state: TripartiteState, path, metadata: dict | None = None) -> None:
    """Write a StateFile.  metadata, if given, must be a flat str -> str map."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "state",
        "dims": list(state.dims.as_tuple()),
        "matrix": _to_pairs(state.rho),
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
    mat = matrix_from_json(doc.get("matrix"), f"{path}: matrix")
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
                "vecA": _to_pairs(t.vec_a),
                "vecB": _to_pairs(t.vec_b),
                "vecC": _to_pairs(t.vec_c),
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
            p = float(rt["p"])
            vec_a = vector_from_json(rt["vecA"], f"{path}: term {i} vecA")
            vec_b = vector_from_json(rt["vecB"], f"{path}: term {i} vecB")
            vec_c = vector_from_json(rt["vecC"], f"{path}: term {i} vecC")
        except KeyError as e:
            raise ValueError(f"{path}: term {i} missing field {e}") from None
        if vec_a.shape != (dims.k,) or vec_b.shape != (dims.m,) or vec_c.shape != (dims.n,):
            raise ValueError(f"{path}: term {i} vector shapes do not match dims")
        terms.append(EnsembleTerm(p=p, vec_a=vec_a, vec_b=vec_b, vec_c=vec_c))
    return SeparableEnsemble(dims=dims, terms=tuple(terms))


def save_canonical_form(form: CanonicalForm, path) -> None:
    """Write a FormFile (ground-truth sibling of generated canonical states)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "canonical_form",
        "dims": list(form.dims.as_tuple()),
        "a_list": [_to_pairs(g) for g in form.a_list],
        "b_list": [_to_pairs(g) for g in form.b_list],
        "f": _to_pairs(form.f),
        "local_u_a": _to_pairs(form.local_u_a),
        "local_u_b": _to_pairs(form.local_u_b),
    }
    _dump(doc, path)


def load_canonical_form(path) -> CanonicalForm:
    """Read a FormFile."""
    doc = _load_document(path, "canonical_form")
    dims = _parse_dims(doc, path)
    a_list = tuple(
        matrix_from_json(g, f"{path}: a_list[{i}]") for i, g in enumerate(doc.get("a_list", []))
    )
    b_list = tuple(
        matrix_from_json(g, f"{path}: b_list[{i}]") for i, g in enumerate(doc.get("b_list", []))
    )
    return CanonicalForm(
        dims=dims,
        a_list=a_list,
        b_list=b_list,
        f=matrix_from_json(doc.get("f"), f"{path}: f"),
        local_u_a=matrix_from_json(doc.get("local_u_a"), f"{path}: local_u_a"),
        local_u_b=matrix_from_json(doc.get("local_u_b"), f"{path}: local_u_b"),
    )
