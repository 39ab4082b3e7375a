"""Tests for the JSON file formats: exact round trips and structural validation."""

import json
from functools import partial

import numpy as np
import pytest

from pptsep import (
    GenSpec,
    NormalizationError,
    TripartiteDims,
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
        np.testing.assert_array_equal(rescued.rho, state.rho)


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
        ],
    )
    def test_rejects_malformed_documents(self, tmp_path, load, doc, message):
        p = tmp_path / "file.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load(p)
