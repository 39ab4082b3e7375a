"""The CLI contract as a property: any input ends in exit 0, 1, 2 or 3, never a traceback.

Each example calls main(argv) in-process on a mutated copy of a valid (2, 2, 2)
state or ensemble document, or on valid documents with one flag set to a bad
value.  For exit codes 0, 1 and 3, stdout must hold exactly one strict
RFC 8259 JSON document (no NaN or Infinity); for exit code 2 it must be empty.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pptsep import decompose, qubit_corner_state
from pptsep.cli import main


def _pairs(z) -> list:
    """A complex array as the nested [re, im] lists of the file formats."""
    z = np.asarray(z)
    return np.stack([z.real, z.imag], axis=-1).tolist()


_STATE = qubit_corner_state(0.3)
DOCS = {
    "state": {
        "schema_version": "1",
        "kind": "state",
        "dims": [2, 2, 2],
        "matrix": _pairs(_STATE.rho),
    },
    "ensemble": {
        "schema_version": "1",
        "kind": "ensemble",
        "dims": [2, 2, 2],
        "terms": [
            {"p": t.p, "vecA": _pairs(t.vec_a), "vecB": _pairs(t.vec_b), "vecC": _pairs(t.vec_c)}
            for t in decompose(_STATE).terms
        ],
    },
}

# Command lines name their files by these placeholders, which the files
# fixture maps to paths: MUTANT is the mutated document, OUT generate's output.
STATE, ENSEMBLE, MUTANT, OUT = "<state>", "<ensemble>", "<mutant>", "<out>"

# What a mutated document of each kind is fed to.
COMMANDS = {
    "state": [
        ["check-ppt", MUTANT],
        ["decompose", MUTANT, "--samples", "8"],
        ["verify", MUTANT, ENSEMBLE],
    ],
    "ensemble": [["verify", STATE, MUTANT]],
}

REPLACEMENTS = [None, [], [0.5], {}, {"x": 1}, "x", True, False, math.nan, math.inf]


def _paths(node, prefix=()):
    """The path, a tuple of keys and indices, of every node below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _by_pattern(doc) -> dict:
    """The document's paths grouped by pattern, a path with every index written "*"."""
    groups = {}
    for path in _paths(doc):
        groups.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(path)
    return groups


# A draw picks a pattern first, then a path of it, so that the two "p" nodes
# of the ensemble are as likely to be drawn as its many vector entries.
PATTERNS = {kind: _by_pattern(doc) for kind, doc in DOCS.items()}


def _mutated(kind: str, path: tuple, action) -> str:
    """The document's text with the node at path replaced by action, or deleted for "delete"."""
    doc = json.loads(json.dumps(DOCS[kind]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = action
    return json.dumps(doc, indent=2)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Placeholder -> path, with the valid state and ensemble files written."""
    d = tmp_path_factory.mktemp("cli-contract")
    paths = {name: str(d / f"{name[1:-1]}.json") for name in (STATE, ENSEMBLE, MUTANT, OUT)}
    for kind, name in (("state", STATE), ("ensemble", ENSEMBLE)):
        with open(paths[name], "w") as f:
            json.dump(DOCS[kind], f)
    return paths


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: it holds {name}")


def _check_contract(files, argv) -> None:
    argv = [files.get(a, a) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@st.composite
def mutated_documents(draw):
    """(kind, text) of a document with one node replaced, one key deleted, or cut short."""
    kind = draw(st.sampled_from(sorted(DOCS)))
    how = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if how == "truncate":
        text = json.dumps(DOCS[kind], indent=2)
        return kind, text[: draw(st.integers(0, len(text) - 1))]
    patterns = sorted(PATTERNS[kind])
    if how == "delete":  # a key of an object
        patterns = [p for p in patterns if p[-1] != "*"]
    path = draw(st.sampled_from(PATTERNS[kind][draw(st.sampled_from(patterns))]))
    action = "delete" if how == "delete" else draw(st.sampled_from(REPLACEMENTS))
    return kind, _mutated(kind, path, action)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(document=mutated_documents(), which=st.integers(0, 2))
@example(document=("ensemble", _mutated("ensemble", ("terms", 0, "p"), math.nan)), which=0)
@example(document=("ensemble", _mutated("ensemble", ("terms", 1, "p"), math.inf)), which=0)
def test_mutated_document_keeps_the_contract(files, document, which):
    kind, text = document
    with open(files[MUTANT], "w") as f:
        f.write(text)
    commands = COMMANDS[kind]
    _check_contract(files, commands[which % len(commands)])


# Each flag with the command line it is appended to.
FLAG_COMMANDS = [
    ["check-ppt", STATE, "--tol"],
    ["decompose", STATE, "--tol"],
    ["decompose", STATE, "--samples"],
    ["decompose", STATE, "--seed"],
    ["verify", STATE, ENSEMBLE, "--tol"],
    ["generate", "--kind", "canonical", "--dims", "2", "2", "2", "--out", OUT, "--scale"],
    ["generate", "--kind", "canonical", "--dims", "2", "2", "2", "--out", OUT, "--cond-cap"],
    ["generate", "--kind", "canonical", "--dims", "2", "2", "2", "--out", OUT, "--seed"],
    ["generate", "--kind", "npt", "--dims", "2", "2", "2", "--out", OUT, "--p"],
    ["generate", "--kind", "example-ii", "--out", OUT, "--a"],
    ["generate", "--kind", "example-i", "--out", OUT, "--dims", "2", "2"],
]
FLAG_VALUES = ["-1", "0", "-0.5", "nan", "inf", "-inf"]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(command=st.sampled_from(FLAG_COMMANDS), value=st.sampled_from(FLAG_VALUES))
@example(command=FLAG_COMMANDS[6], value="inf")
def test_bad_flag_value_keeps_the_contract(files, command, value):
    _check_contract(files, command + [value])
