"""Tests for positivity checks and the partial-transpose report."""

from dataclasses import replace

import numpy as np
import pytest

from pptsep import (
    ALL_MASKS,
    MASK_A,
    MASK_NONE,
    NotHermitianError,
    TripartiteDims,
    ghz_vector,
    gen_canonical_state,
    gen_npt_control,
    GenSpec,
    haar_unitary,
    hermitize,
    is_psd,
    partial_transpose,
    ppt_report,
    qubit_corner_state,
    shifts_complement_state,
    conjugate_local,
)


def ghz_partial_transpose_oracle():
    """Hand-placed rho^(T_A) of the GHZ projector: the independent 8x8 oracle."""
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = m[7, 7] = 0.5  # |000><000| and |111><111| survive untouched
    m[4, 3] = m[3, 4] = 0.5  # |000><111| and |111><000| map to |100><011| etc.
    return m


class TestIsPsd:
    def test_identity(self):
        ok, lo = is_psd(np.eye(4))
        assert ok and lo == pytest.approx(1.0, abs=1e-15)

    def test_indefinite_diagonal(self):
        ok, lo = is_psd(np.diag([1.0, -0.5]))
        assert not ok and lo == pytest.approx(-0.5, abs=1e-15)

    def test_complement_state(self):
        """The product-family complement is PSD with eigenvalues {0 x4, 1/4 x4}."""
        state = shifts_complement_state()
        ok, lo = is_psd(state.rho, tol=1e-12)
        assert ok and abs(lo) < 1e-12
        w = np.sort(np.linalg.eigvalsh(state.rho))
        np.testing.assert_allclose(w, [0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPptReport:
    def test_corner_coherence_state_passes_every_mask(self):
        """A state equal to all of its partial transposes passes with identical minima."""
        state = qubit_corner_state(0.3)
        report = ppt_report(state)
        assert report.overall_ppt
        minima = {e.min_eigenvalue for e in report.entries}
        assert all(e.passed for e in report.entries)
        ref = report.entry(MASK_NONE).min_eigenvalue
        assert all(abs(v - ref) < 1e-14 for v in minima)

    def test_ghz_fails_on_subsystem_masks(self):
        state = gen_npt_control(TripartiteDims(2, 2, 2), p=0.0, phi=ghz_vector())
        np.testing.assert_allclose(
            partial_transpose(state, MASK_A), ghz_partial_transpose_oracle(), atol=1e-15
        )
        report = ppt_report(state)
        assert not report.overall_ppt
        assert report.entry(MASK_A).min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert not report.entry(MASK_A).passed
        assert report.entry(MASK_NONE).passed

    def test_isotropic_ghz_mixture_threshold(self):
        """White noise rescues the GHZ projector exactly at p = 4/5."""
        dims = TripartiteDims(2, 2, 2)
        phi = ghz_vector()
        low = ppt_report(gen_npt_control(dims, p=0.5, phi=phi))
        assert not low.overall_ppt
        assert low.entry(MASK_A).min_eigenvalue == pytest.approx(-0.1875, abs=1e-12)
        high = ppt_report(gen_npt_control(dims, p=0.9, phi=phi))
        assert high.overall_ppt

    def test_every_mask_matches_direct_eigensolves(self):
        """Independent oracle: recompute all eight minima from scratch per mask."""
        state = gen_npt_control(TripartiteDims(2, 3, 2), p=0.4, seed=3)
        report = ppt_report(state)
        for mask in ALL_MASKS:
            direct = float(np.linalg.eigvalsh(hermitize(partial_transpose(state, mask)))[0])
            assert abs(report.entry(mask).min_eigenvalue - direct) < 1e-10

    def test_complement_masks_share_spectra(self):
        state = gen_npt_control(TripartiteDims(2, 2, 3), p=0.3, seed=4)
        for mask in ALL_MASKS:
            a = np.sort(np.linalg.eigvalsh(hermitize(partial_transpose(state, mask))))
            b = np.sort(
                np.linalg.eigvalsh(hermitize(partial_transpose(state, mask.complement())))
            )
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_verdict_invariant_under_local_unitaries(self):
        spec = GenSpec(dims=TripartiteDims(3, 3, 2), seed=5)
        state, _ = gen_canonical_state(spec)
        rng = np.random.default_rng(6)
        rotated = conjugate_local(
            state,
            u_a=haar_unitary(3, rng),
            u_b=haar_unitary(3, rng),
            u_c=haar_unitary(2, rng),
        )
        before, after = ppt_report(state), ppt_report(rotated)
        assert before.overall_ppt == after.overall_ppt
        for mask in ALL_MASKS:
            assert abs(
                before.entry(mask).min_eigenvalue - after.entry(mask).min_eigenvalue
            ) < 1e-10

    def test_default_tolerance_tracks_trace(self):
        report = ppt_report(qubit_corner_state(0.2))
        assert report.tol_used == pytest.approx(1e-9, rel=1e-9)

    def test_report_dict_shape(self):
        doc = ppt_report(qubit_corner_state(0.0)).to_dict()
        assert set(doc) == {"overall_ppt", "tol_used", "masks"}
        assert [m["mask"] for m in doc["masks"]] == [
            "none", "A", "B", "C", "AB", "AC", "BC", "ABC",
        ]

    def test_spectrum_kept_out_of_dict_and_comparison(self):
        state = qubit_corner_state(0.3)
        report = ppt_report(state)
        np.testing.assert_array_equal(report.spectrum, np.linalg.eigvalsh(state.rho))
        assert "spectrum" not in report.to_dict()
        assert report == replace(report, spectrum=None)
