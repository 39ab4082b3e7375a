"""Tests for the JSON file formats: exact round trips and structural validation."""

import json
import re
import runpy
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pptsep import (
    CanonicalForm,
    DimensionMismatch,
    EnsembleTerm,
    GenSpec,
    NormalizationError,
    SeparableEnsemble,
    TripartiteDims,
    TripartiteState,
    decompose,
    extract_canonical,
    gen_canonical_state,
    load_canonical_form,
    load_ensemble,
    load_state,
    qubit_corner_state,
    save_canonical_form,
    save_ensemble,
    save_state,
)


def state_doc(**fields):
    """A valid StateFile document for dims (2, 2, 1), with fields overridden."""
    matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    return {"schema_version": "1", "kind": "state", "dims": [2, 2, 1], "matrix": matrix, **fields}


def ensemble_doc(terms):
    """An EnsembleFile document for dims (2, 2, 2) with the given terms."""
    return {"schema_version": "1", "kind": "ensemble", "dims": [2, 2, 2], "terms": terms}


UNIT = [[1.0, 0.0], [0.0, 0.0]]
TERM = {"p": 1.0, "vecA": UNIT, "vecB": UNIT, "vecC": UNIT}


@pytest.fixture
def state():
    return gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 2), seed=0))[0]


class TestStateRoundTrip:
    def test_load_save_is_identity(self, state, tmp_path):
        p = tmp_path / "state.json"
        save_state(state, p)
        loaded = load_state(p)
        assert loaded.dims == state.dims
        np.testing.assert_array_equal(loaded.rho, state.rho)

    def test_repeated_saves_are_byte_identical(self, state, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_state(state, p1)
        save_state(state, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_round_trip(self, tmp_path):
        p = tmp_path / "state.json"
        save_state(qubit_corner_state(0.3), p, metadata={"a": 0.3})
        assert json.loads(p.read_text())["metadata"] == {"a": "0.3"}

    def test_unnormalized_rejected_by_default(self, state, tmp_path):
        p = tmp_path / "state.json"
        save_state(state, p)
        doc = json.loads(p.read_text())
        doc["matrix"] = [[[2 * re, 2 * im] for re, im in row] for row in doc["matrix"]]
        p.write_text(json.dumps(doc))
        with pytest.raises(NormalizationError):
            load_state(p)
        rescued = load_state(p, allow_unnormalized=True)
        # load_state divides by the real trace: 2 rho / tr(2 rho) is rho / tr(rho) exactly.
        expected = TripartiteState(state.dims, state.rho / state.rho.trace().real).rho
        np.testing.assert_array_equal(rescued.rho, expected)

    @pytest.mark.filterwarnings("error")  # no division by a zero real part
    @pytest.mark.parametrize(
        "entry, shown", [([-0.25, 0.0], "-1+0j"), ([0.0, 0.25], "0+1j")], ids=["negated", "imaginary"]
    )
    def test_trace_without_a_positive_real_part_is_refused(self, tmp_path, entry, shown):
        """-rho does not load as rho, and a trace of 1j is refused, not divided by zero."""
        matrix = [[entry if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state_doc(matrix=matrix)))
        with pytest.raises(ValueError, match=rf"trace {re.escape(shown)} too small to normalize"):
            load_state(p, allow_unnormalized=True)

    @pytest.mark.filterwarnings("error")  # the overflowing sum is refused without a warning
    def test_trace_that_overflows_is_refused(self, tmp_path):
        """Diagonal entries of 1e308 sum to an infinite trace, which is named, not divided by."""
        matrix = [[[1e308, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state_doc(matrix=matrix)))
        message = r"trace inf\+0j overflows \(its real part must be finite"
        with pytest.raises(ValueError, match=message):
            load_state(p, allow_unnormalized=True)


class TestEnsembleRoundTrip:
    def test_load_save_is_identity(self, state, tmp_path):
        ens = decompose(state, witness="corner")
        p = tmp_path / "ens.json"
        save_ensemble(ens, p)
        loaded = load_ensemble(p)
        assert loaded.dims == ens.dims and len(loaded.terms) == len(ens.terms)
        for got, want in zip(loaded.terms, ens.terms):
            assert got.p == want.p
            np.testing.assert_array_equal(got.vec_a, want.vec_a)
            np.testing.assert_array_equal(got.vec_b, want.vec_b)
            np.testing.assert_array_equal(got.vec_c, want.vec_c)

    def test_broken_weights_still_load(self, state, tmp_path):
        """Semantic validation belongs to verify_ensemble, not the loader."""
        ens = decompose(state, witness="corner")
        p = tmp_path / "ens.json"
        save_ensemble(ens, p)
        doc = json.loads(p.read_text())
        doc["terms"][0]["p"] *= 3.0
        p.write_text(json.dumps(doc))
        loaded = load_ensemble(p)
        assert loaded.terms[0].p == pytest.approx(3.0 * ens.terms[0].p)


class TestFormRoundTrip:
    def test_load_save_is_identity(self, state, tmp_path):
        form, _ = extract_canonical(state)
        p = tmp_path / "form.json"
        save_canonical_form(form, p)
        loaded = load_canonical_form(p)
        np.testing.assert_array_equal(loaded.f, form.f)
        for got, want in zip(loaded.a_list + loaded.b_list, form.a_list + form.b_list):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(loaded.local_u_a, form.local_u_a)

    def test_generator_of_the_wrong_shape_is_rejected(self, state, tmp_path):
        """A 4 x 4 generator for N = 2 fails at load, not later inside numpy."""
        p = tmp_path / "form.json"
        save_canonical_form(extract_canonical(state)[0], p)
        doc = json.loads(p.read_text())
        doc["a_list"][0] = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        p.write_text(json.dumps(doc))
        message = r"generator has shape \(4, 4\), expected \(2, 2\)"
        with pytest.raises(DimensionMismatch, match=message):
            load_canonical_form(p)


class TestValidation:
    def test_rejects_wrong_kind(self, state, tmp_path):
        p = tmp_path / "state.json"
        save_state(state, p)
        with pytest.raises(ValueError, match="kind"):
            load_ensemble(p)

    def test_rejects_unknown_schema_version(self, state, tmp_path):
        p = tmp_path / "state.json"
        save_state(state, p)
        doc = json.loads(p.read_text())
        doc["schema_version"] = "99"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema_version"):
            load_state(p)

    def test_rejects_shape_mismatch(self, state, tmp_path):
        p = tmp_path / "state.json"
        save_state(state, p)
        doc = json.loads(p.read_text())
        doc["dims"] = [2, 2, 2]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            load_state(p)

    def test_rejects_malformed_entries(self, tmp_path):
        p = tmp_path / "state.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "kind": "state",
                    "dims": [2, 2, 1],
                    "matrix": [[1.0] * 4] * 4,
                }
            )
        )
        with pytest.raises(ValueError):
            load_state(p)

    def test_rejects_non_finite(self, tmp_path):
        p = tmp_path / "state.json"
        entry = [[0.25 if i == j else 0.0, 0.0] for j in range(4) for i in [0]]
        matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        matrix[0][0][0] = 1e999  # parses as Infinity
        p.write_text(
            json.dumps(
                {"schema_version": "1", "kind": "state", "dims": [2, 2, 1], "matrix": matrix}
            )
        )
        with pytest.raises(ValueError, match="finite"):
            load_state(p)

    def test_rejects_truncated_json(self, tmp_path):
        p = tmp_path / "state.json"
        p.write_text('{"schema_version": "1", "kind": "sta')
        with pytest.raises(ValueError):
            load_state(p)

    def test_rejects_missing_term_fields(self, tmp_path):
        p = tmp_path / "ens.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "kind": "ensemble",
                    "dims": [2, 2, 2],
                    "terms": [{"p": 1.0, "vecA": [[1, 0], [0, 0]]}],
                }
            )
        )
        with pytest.raises(ValueError, match="missing"):
            load_ensemble(p)

    @pytest.mark.parametrize(
        "load, doc, message",
        [
            pytest.param(load_state, [1, 2], "JSON object", id="non-object"),
            pytest.param(load_state, state_doc(dims=[2, 2]), "three integers", id="bad-dims"),
            pytest.param(
                load_state, state_doc(matrix=[[0.25, 0.0]] * 4), "2-D matrix", id="1d-matrix"
            ),
            pytest.param(
                partial(load_state, allow_unnormalized=True),
                state_doc(matrix=[[[0.0, 0.0]] * 4] * 4),
                "too small to normalize",
                id="zero-trace",
            ),
            pytest.param(load_ensemble, ensemble_doc({}), "terms must be a list", id="terms"),
            pytest.param(load_ensemble, ensemble_doc([1]), "must be an object", id="term"),
            pytest.param(
                load_ensemble, ensemble_doc([{**TERM, "vecA": [UNIT]}]), "1-D vector", id="2d-vector"
            ),
            pytest.param(
                load_ensemble,
                ensemble_doc([{**TERM, "vecC": UNIT + [[0.0, 0.0]]}]),
                "shapes do not match",
                id="vector-shape",
            ),
            pytest.param(load_state, state_doc(matrix={}), "numbers", id="object-matrix"),
            pytest.param(
                load_state, state_doc(matrix=[[["0.25", 0.0]] * 4] * 4), "numbers", id="strings"
            ),
            pytest.param(
                load_state, state_doc(matrix=[[[None, 0.0]] * 4] * 4), "numbers", id="nulls"
            ),
            pytest.param(
                load_ensemble, ensemble_doc([{**TERM, "vecA": {"re": 1}}]), "numbers", id="vec-obj"
            ),
            pytest.param(
                load_state,
                state_doc(matrix=[[[True, 0.0]] + [[0.0, 0.0]] * 3] + [[[0.0, 0.0]] * 4] * 3),
                "numbers",
                id="bool-in-matrix",
            ),
            pytest.param(
                load_ensemble,
                ensemble_doc([{**TERM, "vecB": [[1.0, False], [0.0, 0.0]]}]),
                "numbers",
                id="bool-in-vector",
            ),
            pytest.param(load_state, state_doc(dims=[2, 2, True]), "numbers", id="bool-in-dims"),
            *(
                pytest.param(load_ensemble, ensemble_doc([{**TERM, "p": p}]), "p must", id=name)
                for name, p in [
                    ("p-list", [1.0]), ("p-null", None), ("p-str", "1"), ("p-huge", 10**400)
                ]
            ),
            pytest.param(
                load_canonical_form,
                {"schema_version": "1", "kind": "canonical_form", "dims": [2, 2, 1], "a_list": 5},
                "a_list must be a list",
                id="generator-list",
            ),
        ],
    )
    def test_rejects_malformed_documents(self, tmp_path, load, doc, message):
        p = tmp_path / "file.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load(p)

    def test_true_and_false_in_strings_are_not_entries(self, tmp_path):
        """The words may appear in keys and strings; only bool entries are refused."""
        p = tmp_path / "file.json"
        p.write_text(json.dumps(state_doc(metadata={"true": "false", "flag": True})))
        np.testing.assert_array_equal(load_state(p).rho, np.eye(4) / 4)

    def test_rejects_deep_nesting(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_state(p)


def pairs(arr) -> list:
    """The nested-list form of a complex array: each entry an [re, im] pair of floats."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def json_dumps_bytes(doc: dict) -> bytes:
    """What json.dumps(indent=2) writes for doc: the oracle of the streaming writer."""
    return (json.dumps(doc, indent=2) + "\n").encode()


# Signed zero, the smallest subnormal, both sides of repr's switch to exponent
# notation (at 1e16 and below 1e-4), and floats with integer values.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 1e-4, 9.999999999999999e-05]
SPECIAL += [1.0, -3.0, 2.0**53, 1e22, 0.1, 1 / 3]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
FINITE = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(-1e150, 1e150),
)
ANY_FLOAT = st.one_of(FINITE, st.sampled_from(NON_FINITE))


def interleaved(values) -> np.ndarray:
    """A complex vector holding each value once as a real and once as an imaginary part."""
    return np.array([complex(re, im) for re, im in zip(values, values[::-1])])


def complex_arrays(ndim):
    """Complex arrays of this many axes, each of length 0 to 4, with any float parts."""
    return hnp.arrays(
        complex,
        hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=0, max_side=4),
        elements=st.builds(complex, ANY_FLOAT, ANY_FLOAT),
    )


WRITER = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestStreamingWriter:
    """Every file kind is written byte for byte as json.dumps(indent=2) would write it."""

    @WRITER
    @given(
        upper=hnp.arrays(complex, (4, 4), elements=st.builds(complex, FINITE, FINITE)),
        diag=st.lists(
            st.one_of(st.sampled_from(SPECIAL[:3]), st.floats(-1e-3, 1e-3)), min_size=3, max_size=3
        ),
    )
    @example(upper=interleaved(SPECIAL + [0.5]).reshape(4, 4), diag=[-0.0, 5e-324, 1e-5])
    def test_state_file(self, tmp_path, upper, diag):
        rho = np.triu(upper, 1)
        lower = np.tril_indices(4, -1)
        rho[lower] = rho.conj().T[lower]
        rho[np.diag_indices(4)] = diag + [1.0 - sum(diag)]
        state = TripartiteState(TripartiteDims(2, 2, 1), rho)
        path = tmp_path / "state.json"
        save_state(state, path, metadata={"note": "null"})
        expected = {
            "schema_version": "1",
            "kind": "state",
            "dims": [2, 2, 1],
            "matrix": pairs(state.rho),
            "metadata": {"note": "null"},
        }
        assert path.read_bytes() == json_dumps_bytes(expected)

    @WRITER
    @given(
        vecs=st.lists(complex_arrays(1), min_size=4, max_size=4),
        weights=st.lists(ANY_FLOAT, min_size=2, max_size=2),
    )
    @example(vecs=[interleaved(SPECIAL + NON_FINITE)] * 4, weights=NON_FINITE[::2])
    def test_ensemble_file(self, tmp_path, vecs, weights):
        terms = [EnsembleTerm(p, *vecs[i : i + 3]) for i, p in enumerate(weights)]
        path = tmp_path / "ensemble.json"
        save_ensemble(SeparableEnsemble(TripartiteDims(2, 2, 2), tuple(terms)), path)
        expected = {
            "schema_version": "1",
            "kind": "ensemble",
            "dims": [2, 2, 2],
            "terms": [
                {"p": t.p, "vecA": pairs(t.vec_a), "vecB": pairs(t.vec_b), "vecC": pairs(t.vec_c)}
                for t in terms
            ],
        }
        assert path.read_bytes() == json_dumps_bytes(expected)

    @WRITER
    @given(
        n=st.integers(1, 4),
        values=hnp.arrays(complex, (5, 4, 4), elements=st.builds(complex, ANY_FLOAT, ANY_FLOAT)),
    )
    @example(n=4, values=np.resize(interleaved(SPECIAL + NON_FINITE), (5, 4, 4)))
    def test_canonical_form_file(self, tmp_path, n, values):
        """Matrices of the shapes a (2, 2, N) form needs: N x N, then two 2 x 2."""
        mats = [v[:n, :n] for v in values[:3]] + [v[:2, :2] for v in values[3:]]
        form = CanonicalForm(TripartiteDims(2, 2, n), (mats[0],), (mats[1],), *mats[2:])
        path = tmp_path / "form.json"
        save_canonical_form(form, path)
        expected = {
            "schema_version": "1",
            "kind": "canonical_form",
            "dims": [2, 2, n],
            "a_list": [pairs(mats[0])],
            "b_list": [pairs(mats[1])],
            "f": pairs(mats[2]),
            "local_u_a": pairs(mats[3]),
            "local_u_b": pairs(mats[4]),
        }
        assert path.read_bytes() == json_dumps_bytes(expected)

    def test_unserializable_value_writes_no_file(self, tmp_path):
        """A value json cannot encode fails before the file is opened, as with json.dumps."""
        dims = TripartiteDims(np.int64(2), 2, 1)
        path = tmp_path / "state.json"
        with pytest.raises(TypeError, match="int64"):
            save_state(TripartiteState(dims, np.eye(4) / 4), path)
        assert not path.exists()

    def test_large_state_streams_in_constant_memory(self, tmp_path):
        """At (6,6,8) neither the nested lists nor the 6.5 MB text is ever held."""
        a = np.random.default_rng(0).standard_normal((288, 2 * 288)).view(complex)
        rho = a @ a.conj().T
        state = TripartiteState(TripartiteDims(6, 6, 8), rho / rho.trace().real)
        tracemalloc.start()
        try:
            save_state(state, tmp_path / "state.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        np.testing.assert_array_equal(load_state(tmp_path / "state.json").rho, state.rho)


def test_golden_files_are_current(capsys):
    """The goldens' generator, rerun into a temporary directory, writes the committed bytes."""
    script = Path(__file__).parent / "golden" / "regenerate.py"
    assert runpy.run_path(str(script))["main"](["--check"]) == 0
    assert "are current" in capsys.readouterr().out
