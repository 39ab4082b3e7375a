"""Tests for positivity checks, the partial-transpose report and the admission gate."""

import json
import weakref
from collections import Counter

import numpy as np
import pytest

import pptsep.ppt as ppt
from pptsep import (
    ALL_MASKS,
    MASK_A,
    MASK_NONE,
    NotPptError,
    RankMismatch,
    TripartiteDims,
    TripartiteState,
    ghz_vector,
    gen_canonical_state,
    gen_npt_control,
    GenSpec,
    haar_unitary,
    hermitize,
    partial_transpose,
    ppt_report,
    qubit_corner_state,
    shifts_complement_state,
    conjugate_local,
)
from pptsep.ppt import _admit


def ghz_partial_transpose_oracle():
    """Hand-placed rho^(T_A) of the GHZ projector: the independent 8x8 oracle."""
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = m[7, 7] = 0.5  # |000><000| and |111><111| survive untouched
    m[4, 3] = m[3, 4] = 0.5  # |000><111| and |111><000| map to |100><011| etc.
    return m


def transpose_subsystems_oracle(raw, dims, mask):
    """raw with the masked subsystems transposed, gathered entry by entry.

    Entry (r, c) of the result is raw[r', c'], where r' and c' take each
    masked subsystem's index from the other side: an index permutation
    written independently of partial_transpose, for matrices that are not
    a TripartiteState.
    """
    shape = dims.as_tuple()
    digits = np.array(np.unravel_index(np.arange(dims.total), shape))
    swap = np.array([mask.transpose_a, mask.transpose_b, mask.transpose_c])[:, None, None]
    row_digits, col_digits = digits[:, :, None], digits[:, None, :]
    rows = np.where(swap, col_digits, row_digits)
    cols = np.where(swap, row_digits, col_digits)
    return raw[np.ravel_multi_index(tuple(rows), shape), np.ravel_multi_index(tuple(cols), shape)]


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

    def test_entry_looks_up_each_mask(self):
        report = ppt_report(qubit_corner_state(0.3))
        assert [report.entry(mask) for mask in ALL_MASKS] == list(report.entries)
        partial = ppt.PptReport(report.entries[:4], report.overall_ppt, report.tol_used)
        with pytest.raises(KeyError):
            partial.entry(ALL_MASKS[-1])

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

    def test_hermitized_once_matches_per_mask_eigensolves_bit_for_bit(self):
        """The report equals the per-mask spectra of the hermitized input, to the last bit."""
        dims = TripartiteDims(2, 3, 2)
        rng = np.random.default_rng(21)
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = hermitize(z @ z.conj().T)
        rho = rho / rho.trace() + 1e-12 * (z - z.conj().T)  # anti-Hermitian part within HERM_TOL
        inputs = [
            (dims, rho),
            (dims, gen_npt_control(dims, p=0.3, seed=2).rho),
            (TripartiteDims(2, 2, 2), shifts_complement_state().rho),
            (TripartiteDims(2, 2, 2), qubit_corner_state(0.3).rho),
        ]
        for dims, raw in inputs:
            spectra = [
                np.linalg.eigvalsh(hermitize(transpose_subsystems_oracle(raw, dims, m)))
                for m in ALL_MASKS[:4]
            ]
            report = ppt_report(TripartiteState(dims, raw))
            expected = [float(w[0]) for w in spectra]
            expected += [expected[ALL_MASKS.index(m.complement())] for m in ALL_MASKS[4:]]
            tol = 1e-9 * float(raw.trace().real)
            doc = {
                "overall_ppt": all(lo >= -tol for lo in expected[:4]),
                "tol_used": tol,
                "masks": [
                    {"mask": m.label, "min_eigenvalue": lo, "pass": lo >= -tol}
                    for m, lo in zip(ALL_MASKS, expected)
                ],
            }
            assert json.dumps(report.to_dict()) == json.dumps(doc)


def boundary_state(dims, c, seed=0):
    """A rank-N state whose A and B partial transposes have smallest eigenvalue -c * 1e-9.

    rho = (|v><v| (x) |0><0| + sum_j |a_j b_j><a_j b_j| (x) |j><j|) / N with
    v = cos t |00> + sin t |11> and random product vectors a_j b_j (j >= 1).
    The smallest eigenvalue of rho^(T_A) (and of rho^(T_B), its transpose up to
    the diagonal C part) is -sin(2t) / (2N), so t is solved for directly; mask C
    stays PSD.  Haar-random local unitaries then scramble the state.
    """
    k, m, n = dims
    rng = np.random.default_rng(seed)
    t = 0.5 * np.arcsin(2 * n * c * 1e-9)
    v = np.zeros(k * m, dtype=complex)
    v[0], v[m + 1] = np.cos(t), np.sin(t)
    vectors = [v]
    for _ in range(n - 1):
        a = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vectors.append(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
    rho = sum(
        np.kron(np.outer(w, w.conj()), np.diag(np.eye(n)[j])) for j, w in enumerate(vectors)
    ) / n
    state = TripartiteState(TripartiteDims(*dims), hermitize(rho))
    return conjugate_local(
        state, u_a=haar_unitary(k, rng), u_b=haar_unitary(m, rng), u_c=haar_unitary(n, rng)
    )


def gate_outcome(state):
    """The admission gate's verdict: None, or the NotPptError message."""
    try:
        _admit(state)
    except NotPptError as err:
        return str(err)
    return None


def report_outcome(state):
    """What ppt_report says the gate must answer."""
    failing = [e.mask.label for e in ppt_report(state).entries if not e.passed]
    return f"state is not PPT (failing masks: {', '.join(failing)})" if failing else None


def count_verdict_work(monkeypatch, side):
    """Count Cholesky outcomes of the verdict helper and full-size eigvalsh calls."""
    counts = Counter()
    real_cholesky, real_eigvalsh = ppt._cholesky_succeeds, np.linalg.eigvalsh

    def cholesky(x, shift):
        ok = real_cholesky(x, shift)
        counts["cholesky-ok" if ok else "cholesky-fails"] += 1
        return ok

    def eigvalsh(a, *args, **kw):
        if np.shape(a) == (side, side):
            counts["eigvalsh"] += 1
        return real_eigvalsh(a, *args, **kw)

    monkeypatch.setattr(ppt, "_cholesky_succeeds", cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return counts


# Work of the masked verdicts per branch of the A and B verdicts (which share
# one spectrum); mask C is PSD and passes by Cholesky.
BRANCH_COUNTS = {
    "cholesky-pass": {"cholesky-ok": 3},
    "eigvalsh": {"cholesky-fails": 2, "cholesky-ok": 3, "eigvalsh": 2},
    "cholesky-fail": {"cholesky-fails": 4, "cholesky-ok": 1},
}
# Then the state's own work: one Cholesky certificate when every masked
# verdict passed, else one eigvalsh, whose spectrum also gives the rank.
STATE_COUNTS = {True: {"cholesky-ok": 1}, False: {"eigvalsh": 1}}


class TestAdmissionVerdicts:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 4)])
    @pytest.mark.parametrize(
        "c,branch",
        [
            (0.3, "cholesky-pass"),
            (0.49, "cholesky-pass"),
            (0.51, "eigvalsh"),
            (0.9, "eigvalsh"),
            (0.999, "eigvalsh"),
            (1.0, "eigvalsh"),
            (1.001, "eigvalsh"),
            (1.1, "eigvalsh"),
            (1.49, "eigvalsh"),
            (1.51, "cholesky-fail"),
            (3.0, "cholesky-fail"),
        ],
    )
    def test_gate_matches_report_at_the_threshold(self, monkeypatch, dims, c, branch):
        """Near lambda_min = -tol the gate refuses exactly when ppt_report fails a mask."""
        state = boundary_state(dims, c)
        report = ppt_report(state)
        assert report.entry(MASK_A).min_eigenvalue == pytest.approx(-c * 1e-9, abs=1e-12)
        expected = report_outcome(state)
        if c != 1.0:
            assert (expected is None) == (c < 1)
        counts = count_verdict_work(monkeypatch, state.side)
        assert gate_outcome(state) == expected
        assert counts == Counter(BRANCH_COUNTS[branch]) + Counter(STATE_COUNTS[expected is None])

    def test_large_norm_skips_the_certificate(self, monkeypatch):
        """Where the Cholesky error bound reaches tol / 2, only eigenvalues decide."""
        dims = TripartiteDims(2, 2, 2)
        big = 3e4
        phi = np.zeros(8, dtype=complex)
        phi[[0, 7]] = 0.6, 0.8
        chi = np.zeros(8, dtype=complex)
        chi[[0, 7]] = 0.8, -0.6
        rho = big * np.outer(phi, phi) - (big - 1) * np.outer(chi, chi)
        state = TripartiteState(dims, rho)
        assert np.linalg.norm(state.rho) > 1e4
        expected = report_outcome(state)
        assert expected is not None
        counts = count_verdict_work(monkeypatch, state.side)
        assert gate_outcome(state) == expected
        assert counts == {"eigvalsh": 4}

    def test_margin_between_half_tol_and_tol_skips_the_certificate(self, monkeypatch):
        """The guard is 2 beta < tol / 2: at 2 beta in [tol / 2, tol) only eigenvalues decide."""
        diagonal = [7000.25] * 4 + [-7000.0] * 4  # trace 1
        state = TripartiteState(TripartiteDims(2, 2, 2), np.diag(diagonal).astype(complex))
        d, eps, tol = state.side, np.finfo(float).eps, 1e-9
        c = d * (d + 1) * eps / (1 - (d + 1) * eps)
        beta = c / (1 - c) * (np.linalg.norm(state.rho) + 1.5 * tol)
        assert tol / 2 <= 2 * beta < tol
        counts = count_verdict_work(monkeypatch, state.side)
        with pytest.raises(RankMismatch):
            _admit(state)
        assert counts == {"eigvalsh": 4}

    def test_gate_builds_the_partial_transposes_one_at_a_time(self, monkeypatch, bell_mixture):
        """Each partial transpose is freed before the next one is built."""
        real = ppt.partial_transpose
        built, alive_at_build = [], []

        def tracked(state, mask):
            alive_at_build.append(sum(ref() is not None for ref in built))
            out = real(state, mask)
            built.append(weakref.ref(out))
            return out

        monkeypatch.setattr(ppt, "partial_transpose", tracked)
        with pytest.raises(NotPptError):
            _admit(bell_mixture)
        assert len(built) == 3
        assert alive_at_build == [0, 0, 0]
