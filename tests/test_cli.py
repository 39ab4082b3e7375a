"""End-to-end tests for the ``pptsep`` command line, run in-process via main()."""

import json
import tracemalloc

import numpy as np
import pytest

from pptsep import (
    TripartiteDims,
    assemble_canonical_state,
    gen_npt_control,
    ghz_vector,
    identity_corner_state,
    load_canonical_form,
    load_ensemble,
    load_state,
    qubit_corner_state,
    save_state,
    verify_ensemble,
)
from pptsep.cli import MAX_SAMPLES, MAX_STATE_SIDE, _parse_complex_vector, build_parser, main


def run(capsys, *argv):
    """Invoke the CLI and return (exit_code, parsed_stdout_json_or_None)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def ppt_state_file(tmp_path):
    p = tmp_path / "ppt.json"
    save_state(qubit_corner_state(0.3), p)
    return str(p)

@pytest.fixture
def npt_state_file(tmp_path):
    p = tmp_path / "npt.json"
    save_state(gen_npt_control(TripartiteDims(2, 2, 2), p=0.5, phi=ghz_vector()), p)
    return str(p)


class TestCheckPpt:
    def test_ppt_state_exits_zero(self, capsys, ppt_state_file):
        code, doc = run(capsys, "check-ppt", ppt_state_file)
        assert code == 0
        assert doc["overall_ppt"] is True
        assert [e["mask"] for e in doc["masks"]] == [
            "none", "A", "B", "C", "AB", "AC", "BC", "ABC",
        ]
        assert all(e["pass"] for e in doc["masks"])

    def test_npt_state_exits_one(self, capsys, npt_state_file):
        code, doc = run(capsys, "check-ppt", npt_state_file)
        assert code == 1
        assert doc["overall_ppt"] is False
        by_mask = {e["mask"]: e for e in doc["masks"]}
        assert by_mask["A"]["min_eigenvalue"] == pytest.approx(-0.1875, abs=1e-12)

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, doc = run(capsys, "check-ppt", str(tmp_path / "nope.json"))
        assert code == 2
        assert doc is None  # errors go to stderr, stdout stays empty

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, doc = run(capsys, "check-ppt", str(p))
        assert code == 2
        assert doc is None


class TestDecompose:
    def test_identity_corner_full_run(self, capsys, tmp_path):
        state_path = tmp_path / "state.json"
        out_path = tmp_path / "ensemble.json"
        state = identity_corner_state(TripartiteDims(2, 2, 3))
        save_state(state, state_path)

        code, doc = run(
            capsys, "decompose", str(state_path), "--out", str(out_path)
        )
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["pass"] is True
        assert doc["terms"] == 3
        np.testing.assert_allclose(doc["weights"], [1 / 3] * 3, atol=1e-12)

        # the written EnsembleFile certifies the state on re-load
        ensemble = load_ensemble(out_path)
        residual, ok = verify_ensemble(state, ensemble, tol=1e-8)
        assert ok and residual <= 1e-10

    def test_rank_deficient_state_exits_three_with_typed_error(self, capsys, tmp_path):
        p = tmp_path / "bound.json"
        code, _ = run(capsys, "generate", "--kind", "example-iii", "--out", str(p))
        assert code == 0
        capsys.readouterr()
        code, doc = run(capsys, "decompose", str(p))
        assert code == 3
        assert doc["status"] == "error"
        assert doc["error"] == "RankMismatch"
        assert doc["message"]

    def test_npt_state_without_corner_witness_exits_three(self, capsys, tmp_path, bell_mixture):
        p = tmp_path / "bell.json"
        save_state(bell_mixture, p)
        code, doc = run(capsys, "decompose", str(p), "--witness", "corner")
        assert code == 3
        assert doc["error"] == "NotPptError"

    def test_explicit_witness_requires_both_vectors(self, capsys, ppt_state_file):
        code, doc = run(
            capsys, "decompose", ppt_state_file, "--witness", "explicit", "--ea", "1,0"
        )
        assert code == 2
        assert doc is None

    @pytest.mark.filterwarnings("error")  # an overflowing norm is refused without a warning
    @pytest.mark.parametrize(
        "ea",
        ["1,x", "0,0", "nan,1", "inf,1", "1e200,1e200"],
        ids=["unparsable", "zero", "nan", "inf", "overflowing-norm"],
    )
    def test_bad_explicit_vector_exits_two(self, capsys, ppt_state_file, ea):
        code, doc = run(
            capsys, "decompose", ppt_state_file, "--witness", "explicit", "--ea", ea, "--fb", "1,0"
        )
        assert code == 2
        assert doc is None

    @pytest.mark.parametrize("text", ["0.6,0.8", "1,3", "0.6+0.1j,-0.8", "-7e-3,2e150"])
    def test_explicit_vector_is_divided_by_its_norm(self, text):
        """Any vector whose norm is finite and nonzero gives the bits of vec / norm(vec)."""
        vec = np.array([complex(tok) for tok in text.split(",")])
        unit = _parse_complex_vector(text, "--ea", 2)
        assert unit.tobytes() == (vec / np.linalg.norm(vec)).tobytes()

    def test_underflowing_explicit_vector_is_its_direction(self, capsys, ppt_state_file):
        """A vector whose squared norm underflows is normalized, not refused as zero."""
        argv = ["decompose", ppt_state_file, "--witness", "explicit", "--fb", "1,0"]
        assert main([*argv, "--ea", "1e-200,0"]) == 0
        tiny = capsys.readouterr().out
        assert main([*argv, "--ea", "1,0"]) == 0
        assert tiny == capsys.readouterr().out

    @pytest.mark.parametrize(
        "ea, fb", [("1,0,0", "1,0"), ("1,0", "1"), ("1", "1,0,0")], ids=["ea", "fb", "both"]
    )
    def test_explicit_vector_of_wrong_length_exits_two(self, capsys, ppt_state_file, ea, fb):
        """A vector that does not fit the state's dims is a usage error, like one that does
        not parse."""
        code, doc = run(
            capsys, "decompose", ppt_state_file, "--witness", "explicit", "--ea", ea, "--fb", fb
        )
        assert code == 2
        assert doc is None

    def test_explicit_witness_runs(self, capsys, ppt_state_file):
        # the qubit example is supported on block (0, 0), so that is the
        # product pair with an invertible sandwich
        code, doc = run(
            capsys,
            "decompose",
            ppt_state_file,
            "--witness", "explicit",
            "--ea", "1,0",
            "--fb", "1,0",
        )
        assert code == 0
        assert doc["pass"] is True
        assert sorted(doc["weights"]) == pytest.approx([0.2, 0.8], abs=1e-10)


class TestGenerate:
    def test_same_seed_same_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for p in (p1, p2):
            code, _ = run(
                capsys,
                "generate", "--kind", "canonical",
                "--dims", "3", "3", "2", "--seed", "7",
                "--out", str(p),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_canonical_emits_truth_sidecar(self, capsys, tmp_path):
        p = tmp_path / "state.json"
        code, doc = run(
            capsys,
            "generate", "--kind", "canonical", "--dims", "2", "2", "2",
            "--out", str(p),
        )
        assert code == 0
        truth = load_canonical_form(doc["truth"])
        assert truth.dims == TripartiteDims(2, 2, 2)
        state = load_state(p)
        # ground truth reassembles the very state that was written
        rebuilt, _ = assemble_canonical_state(
            truth.dims, list(truth.a_list), list(truth.b_list), truth.f
        )
        np.testing.assert_allclose(state.rho, rebuilt.rho, atol=1e-12)

    def test_example_ii_matches_library_constructor(self, capsys, tmp_path):
        p = tmp_path / "qubit.json"
        code, doc = run(
            capsys, "generate", "--kind", "example-ii", "--a", "0.3", "--out", str(p)
        )
        assert code == 0
        assert doc["dims"] == [2, 2, 2]
        np.testing.assert_array_equal(load_state(p).rho, qubit_corner_state(0.3).rho)

    def test_infeasible_coherence_exits_two(self, capsys, tmp_path):
        code, doc = run(
            capsys,
            "generate", "--kind", "example-ii", "--a", "0.7",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert doc is None

    @pytest.mark.parametrize(
        "kind, flags, library",
        [
            ("example-i", [], identity_corner_state),
            ("npt", ["--p", "0.4", "--seed", "3"], lambda dims: gen_npt_control(dims, 0.4, 3)),
        ],
    )
    def test_kinds_with_dims_write_the_library_state(self, capsys, tmp_path, kind, flags, library):
        p = tmp_path / "state.json"
        code, doc = run(
            capsys, "generate", "--kind", kind, "--dims", "2", "2", "3", *flags, "--out", str(p)
        )
        assert code == 0
        assert doc == {"status": "ok", "kind": kind, "dims": [2, 2, 3], "out": str(p)}
        expected = library(TripartiteDims(2, 2, 3)).rho
        assert load_state(p).rho.tobytes() == expected.tobytes()

    def test_canonical_without_dims_exits_two(self, capsys, tmp_path):
        code, _ = run(
            capsys, "generate", "--kind", "canonical", "--out", str(tmp_path / "x.json")
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["example-i", "npt"])
    def test_kinds_without_dims_exit_two(self, capsys, tmp_path, kind):
        out = tmp_path / "x.json"
        code, doc = run(capsys, "generate", "--kind", kind, "--out", str(out))
        assert code == 2
        assert doc is None
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--scale", "--cond-cap"])
    def test_non_finite_canonical_parameter_exits_two(self, capsys, tmp_path, flag, value):
        out = tmp_path / "x.json"
        code, doc = run(
            capsys,
            "generate", "--kind", "canonical", "--dims", "2", "2", "2", flag, value,
            "--out", str(out),
        )
        assert code == 2
        assert doc is None
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["canonical", "example-i", "npt"])
    def test_dims_above_the_bound_exit_two_before_any_allocation(self, capsys, tmp_path, kind):
        """K*M*N = 2**21 > MAX_STATE_SIDE: each KMN x KMN matrix would take 64 TiB."""
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            code = main(
                ["generate", "--kind", kind, "--dims", "1024", "1024", "2", "--out", str(out)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()
        assert 1024 * 1024 * 2 > MAX_STATE_SIDE
        assert peak < 1 << 20


class TestVerify:
    def _write_pair(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        ens_path = tmp_path / "ens.json"
        save_state(qubit_corner_state(0.2), state_path)
        code, _ = run(capsys, "decompose", str(state_path), "--out", str(ens_path))
        assert code == 0
        capsys.readouterr()
        return state_path, ens_path

    def test_good_pair_exits_zero(self, capsys, tmp_path):
        state_path, ens_path = self._write_pair(tmp_path, capsys)
        code, doc = run(capsys, "verify", str(state_path), str(ens_path))
        assert code == 0
        assert doc["pass"] is True
        assert doc["total_weight"] == pytest.approx(1.0, abs=1e-12)

    def test_tampered_weight_exits_one(self, capsys, tmp_path):
        state_path, ens_path = self._write_pair(tmp_path, capsys)
        doc = json.loads(ens_path.read_text())
        doc["terms"][0]["p"] *= 1.5
        ens_path.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", str(state_path), str(ens_path))
        assert code == 1
        assert out["pass"] is False

    @pytest.mark.parametrize("spelling", ["NaN", "Infinity", "1e999"])
    def test_non_finite_weight_exits_two(self, capsys, tmp_path, spelling):
        """json reads each spelling as a float, NaN or inf: an input error, not a negative."""
        state_path, ens_path = self._write_pair(tmp_path, capsys)
        doc = json.loads(ens_path.read_text())
        doc["terms"][0]["p"] = "WEIGHT"
        ens_path.write_text(json.dumps(doc).replace('"WEIGHT"', spelling))
        assert main(["verify", str(state_path), str(ens_path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda terms: [t.update(p=1e308) for t in terms],
            lambda terms: terms[0]["vecA"][0].__setitem__(0, 1e200),
        ],
        ids=["both weights 1e308", "vecA entry 1e200"],
    )
    def test_overflowing_ensemble_exits_two(self, capsys, tmp_path, mutate):
        """Finite entries whose total weight or residual overflows: an input error, no NaN or
        Infinity on stdout."""
        state_path, ens_path = self._write_pair(tmp_path, capsys)
        doc = json.loads(ens_path.read_text())
        mutate(doc["terms"])
        ens_path.write_text(json.dumps(doc))
        assert main(["verify", str(state_path), str(ens_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err

    def test_dimension_mismatch_exits_two(self, capsys, tmp_path):
        _, ens_path = self._write_pair(tmp_path, capsys)
        other = tmp_path / "other.json"
        save_state(identity_corner_state(TripartiteDims(2, 2, 3)), other)
        code, doc = run(capsys, "verify", str(other), str(ens_path))
        assert code == 2
        assert doc is None

    def test_ensemble_file_of_other_dims_exits_two(self, capsys, tmp_path):
        """Its vectors no longer match its dims, so it fails to load."""
        state_path, ens_path = self._write_pair(tmp_path, capsys)
        doc = json.loads(ens_path.read_text())
        doc["dims"] = [2, 2, 3]
        ens_path.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", str(state_path), str(ens_path))
        assert code == 2
        assert out is None


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no command"),
        pytest.param(["frobnicate"], id="unknown command"),
        pytest.param(["decompose"], id="no state"),
        *(
            pytest.param(argv, id=" ".join(argv[:1] + argv[-2:]))
            for argv in [
                ["decompose", "s.json", "--samples", "-1"],
                ["decompose", "s.json", "--seed", "-1"],
                ["decompose", "s.json", "--tol", "nan"],
                ["decompose", "s.json", "--tol", "0"],
                ["check-ppt", "s.json", "--tol", "nan"],
                ["check-ppt", "s.json", "--tol", "-1e-9"],
                ["check-ppt", "s.json", "--tol", "abc"],
                ["verify", "s.json", "e.json", "--tol", "inf"],
                ["generate", "--kind", "npt", "--dims", "2", "2", "2", "--seed", "-3", "--out", "x"],
            ]
        ),
    ],
)
def test_usage_error_exits_two(capsys, argv):
    """Bad flag values are usage errors too: a tolerance must be positive and finite,
    a seed or sample count non-negative."""
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_samples_above_the_bound_is_a_usage_error(capsys):
    """--samples is refused by argparse above MAX_SAMPLES, before any file is read."""
    argv = ["decompose", "s.json", "--samples"]
    assert build_parser().parse_args(argv + [str(MAX_SAMPLES)]).samples == MAX_SAMPLES
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + [str(MAX_SAMPLES + 1)])
    assert exc.value.code == 2
    assert f"at most {MAX_SAMPLES}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edited, edit, command",
    [
        ("ens.json", lambda doc: doc["terms"][0].update(p=[0.5]), "verify"),
        ("ens.json", lambda doc: doc["terms"][0].update(vecA={"re": 1.0}), "verify"),
        ("state.json", lambda doc: doc.update(matrix={}), "check-ppt"),
        ("state.json", lambda doc: doc["matrix"][0][0].__setitem__(1, False), "check-ppt"),
        ("ens.json", lambda doc: doc["terms"][0]["vecC"][0].__setitem__(0, True), "verify"),
    ],
    ids=["p-list", "vector-object", "matrix-object", "bool-in-matrix", "bool-in-vector"],
)
def test_wrong_element_type_exits_two(capsys, tmp_path, edited, edit, command):
    state_path, ens_path = tmp_path / "state.json", tmp_path / "ens.json"
    save_state(qubit_corner_state(0.3), state_path)
    assert main(["decompose", str(state_path), "--out", str(ens_path)]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / edited).read_text())
    edit(doc)
    (tmp_path / edited).write_text(json.dumps(doc))
    files = [state_path, ens_path][: 2 if command == "verify" else 1]
    code, out = run(capsys, command, *map(str, files))
    assert code == 2
    assert out is None


def test_deeply_nested_file_exits_two(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out = run(capsys, "check-ppt", str(p))
    assert code == 2
    assert out is None


class TestStdoutDiscipline:
    @pytest.mark.parametrize("tolflag", [[], ["--tol", "1e-6"]])
    def test_stdout_is_a_single_json_document(self, capsys, ppt_state_file, tolflag):
        code = main(["check-ppt", ppt_state_file, *tolflag])
        out = capsys.readouterr().out
        assert code == 0
        json.loads(out)  # raises if stdout carries anything besides the document
