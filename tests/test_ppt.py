"""Tests for positivity checks, the partial-transpose report and the admission gate."""

import json
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pptsep.ppt as ppt
from pptsep import (
    ALL_MASKS,
    MASK_A,
    MASK_NONE,
    NotPptError,
    RankMismatch,
    TripartiteDims,
    TripartiteState,
    assemble_canonical_state,
    ghz_vector,
    gen_canonical_state,
    gen_npt_control,
    GenSpec,
    haar_unitary,
    hermitize,
    numeric_rank,
    partial_transpose,
    ppt_report,
    qubit_corner_state,
    shifts_complement_state,
    conjugate_local,
)
from pptsep.ppt import _admit, _psd_verdict


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
    """Count the certificate outcomes of _psd_verdict and full-size eigvalsh calls."""
    counts = Counter()
    names = {True: "certified", False: "refuted", None: "undecided"}
    real_verdict, real_eigvalsh = ppt._psd_verdict, np.linalg.eigvalsh

    def verdict(x, *args):
        outcome = real_verdict(x, *args)
        counts[names[outcome]] += 1
        return outcome

    def eigvalsh(a, *args, **kw):
        if np.shape(a) == (side, side):
            counts["eigvalsh"] += 1
        return real_eigvalsh(a, *args, **kw)

    monkeypatch.setattr(ppt, "_psd_verdict", verdict)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return counts


# The regime of the A and B minimum -c * tol that each branch label names:
# x + (tol/2) I has a Cholesky factor, neither shift settles it, or
# x + (3 tol/2) I has none.
BRANCH_C = {"cholesky-pass": (0, 0.5), "eigvalsh": (0.5, 1.5), "cholesky-fail": (1.5, np.inf)}
THRESHOLD_C = (0.3, 0.49, 0.51, 0.9, 0.999, 1.0, 1.001, 1.1, 1.49, 1.51, 3.0)
# The certificate's outcome on masks A and B, by dims and c: T proves the mask
# PSD, F refutes it, N leaves it to the mask's eigvalsh.  Mask C is PSD and
# certified throughout.  ||x - LL†||_F is about 2 c tol here, so only c below
# about 1/2 is proved PSD; a refutation needs lambda_min(x[Q, Q]) below -tol.
AB_OUTCOMES = {
    (2, 2, 2): dict(zip(THRESHOLD_C, "TT NN NN NN NN NN NN NN FF FF FF".split())),
    (3, 3, 4): dict(zip(THRESHOLD_C, "TT TT TN NN NN NN NN NN NN NN NF".split())),
}
OUTCOME_WORK = {"T": {"certified": 1}, "F": {"refuted": 1}, "N": {"undecided": 1, "eigvalsh": 1}}
# Then the state's own work: one certificate (PSD throughout) while no mask
# is refuted, and one eigvalsh, whose spectrum also gives the rank, when the
# state is refused.


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
        low, high = BRANCH_C[branch]
        assert low < c < high
        state = boundary_state(dims, c)
        report = ppt_report(state)
        assert report.entry(MASK_A).min_eigenvalue == pytest.approx(-c * 1e-9, abs=1e-12)
        expected = report_outcome(state)
        if c != 1.0:
            assert (expected is None) == (c < 1)
        counts = count_verdict_work(monkeypatch, state.side)
        assert gate_outcome(state) == expected
        outcomes = AB_OUTCOMES[dims][c]
        work = Counter({"certified": 1 + ("F" not in outcomes), "eigvalsh": expected is not None})
        for outcome in outcomes:
            work += Counter(OUTCOME_WORK[outcome])
        assert counts == work

    def test_large_norm_skips_the_certificate(self, monkeypatch):
        """Where eigvalsh's error bound nears tol, the masks are refuted.

        At ||rho||_F about 4e4 that bound is about 0.7 tol at d = 8, so no
        mask could be proved PSD; the strongly negative masks are refuted on
        a principal submatrix, and only the state itself is decomposed.
        """
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
        assert counts == {"refuted": 3, "eigvalsh": 1}

    def test_margin_between_half_tol_and_tol_skips_the_certificate(self, monkeypatch):
        """With eigvalsh's error bound between tol / 4 and tol / 2, mask A is refuted.

        The refutation adds that bound to its margin, which a minimum of
        -7000 clears.  The state's one spectrum then gives rank 8, and
        RankMismatch is raised before masks B and C are examined.
        """
        diagonal = [7000.25] * 4 + [-7000.0] * 4  # trace 1
        state = TripartiteState(TripartiteDims(2, 2, 2), np.diag(diagonal).astype(complex))
        beta = eigvalsh_error(state.side, np.linalg.norm(state.rho))
        assert TOL / 4 <= beta < TOL / 2
        counts = count_verdict_work(monkeypatch, state.side)
        with pytest.raises(RankMismatch):
            _admit(state)
        assert counts == {"refuted": 1, "eigvalsh": 1}

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


TOL = 1e-9
EPS = np.finfo(float).eps


def gamma(m):
    return m * EPS / (1 - m * EPS)


def eigvalsh_error(size, norm):
    """eigvalsh's backward-error bound as _psd_verdict assumes it: c / (1 - c) * norm."""
    c = size * gamma(size + 1)
    return c / (1 - c) * norm


def pivots_and_residual(top, residual):
    """An exactly Hermitian blockdiag(top, diag(residual)), top 2 x 2 and dominant.

    N = 2 pivots take top, whose off-block rows are zero, so the residual
    left by the certificate is diag(residual) itself.
    """
    x = np.zeros((2 + len(residual),) * 2, dtype=complex)
    x[:2, :2] = top
    x[2:, 2:] = np.diag(residual)
    return x


def verdict(x):
    return _psd_verdict(x, TOL, float(np.linalg.norm(x)), 2)


# An O(1) positive definite top block, whose factor rounds at the 1e-16 level.
SMALL_TOP = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
# A top block of norm about 2.3e4 that has the exact factor diag(128, 128), so
# the residual is exact and eigvalsh's error bound nears tol / 2 at d = 8.
LARGE_TOP = np.diag([16384.0, 16384.0])


class TestCertificateEdges:
    """_psd_verdict's two bounds, met at 0.5x and broken at 1.5x."""

    @pytest.mark.parametrize("c,expected", [(0.5, True), (1.5, None)])
    def test_residual_norm(self, c, expected):
        """||x - LL†||_F at 0.5 tol proves PSD; at 1.5 tol, spread over signs so that
        eigvalsh still passes, it leaves the verdict to eigvalsh."""
        residual = c * TOL / np.sqrt(6) * np.array([1, -1, 1, -1, 1, -1])
        x = pivots_and_residual(SMALL_TOP, residual)
        assert np.linalg.eigvalsh(x)[0] >= -TOL
        assert verdict(x) is expected

    @pytest.mark.parametrize("slack,expected", [(0.5, None), (2.0, True)])
    def test_rounding_and_eigvalsh_terms(self, slack, expected):
        """The success bound counts eigvalsh's error and the gamma_{k+1} ||L||_F² term.

        The residual norm is tol - beta - slack * g, with g = gamma_3 ||L||_F² the
        rounding term of the product LL† (k = 2): it proves PSD at slack 2, not at
        slack 1/2.
        """
        x = pivots_and_residual(LARGE_TOP, np.zeros(6))
        beta = eigvalsh_error(8, np.linalg.norm(x))
        g = gamma(3) * 2 * 16384.0
        assert 0.3 * TOL < beta < 0.5 * TOL and g > 0.01 * TOL
        x[2:, 2:] = np.diag([TOL - beta - slack * g, 0, 0, 0, 0, 0])
        assert verdict(x) is expected

    @pytest.mark.parametrize("c,expected", [(0.5, None), (0.75, None), (1.5, False)])
    def test_principal_submatrix_minimum(self, c, expected):
        """A minimum of x[Q, Q] at -1.5 tol refutes; at -0.5 or -0.75 tol it does not.

        The positive entries keep ||x - LL†||_F above tol, so the success side
        cannot decide.
        """
        x = pivots_and_residual(SMALL_TOP, np.array([2, -c, 2, 0, 0, 0]) * TOL)
        assert np.linalg.eigvalsh(x)[0] == pytest.approx(-c * TOL, rel=1e-12)
        assert verdict(x) is expected

    @pytest.mark.parametrize("slack,expected", [(0.5, None), (2.0, False)])
    def test_refutation_counts_both_eigvalsh_errors(self, slack, expected):
        """The refutation counts eigvalsh's error on x and on x[Q, Q].

        Q is the two pivots, the most negative diagonal entry and one zero,
        and the minimum is -tol - beta(x) - slack * beta(x[Q, Q]).
        """
        x = pivots_and_residual(LARGE_TOP, np.zeros(6))
        beta = eigvalsh_error(8, np.linalg.norm(x))
        beta_q = eigvalsh_error(4, np.linalg.norm(LARGE_TOP))
        assert beta > 3 * beta_q > 0.1 * TOL
        x[2, 2] = -TOL - beta - slack * beta_q
        assert verdict(x) is expected


def rank_n_npt_state(dims, seed):
    """A rank-N state with non-commuting generators, so that it is not PPT."""
    k, m, n = dims.as_tuple()
    rng = np.random.default_rng(seed)
    gens = [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        for _ in range((m - 1) + (k - 1))
    ]
    q = haar_unitary(n, rng)
    f = q @ np.diag(np.exp(rng.uniform(-2.3, 2.3, n))) @ q.conj().T
    return assemble_canonical_state(dims, gens[: m - 1], gens[m - 1 :], f)[0]


def admission_result(state):
    """_admit's refusal as (class name, message), or None."""
    try:
        _admit(state)
    except (RankMismatch, NotPptError) as err:
        return type(err).__name__, str(err)
    return None


def derived_result(state):
    """The refusal that ppt_report and the numeric rank call for, or None."""
    rank, n = numeric_rank(state.rho), state.dims.n
    if rank != n:
        return "RankMismatch", f"state rank {rank} != N = {n}; canonical form does not apply"
    message = report_outcome(state)
    return None if message is None else ("NotPptError", message)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    kind=st.sampled_from(["ppt", "npt", "noise"]),
    k=st.integers(2, 3),
    m=st.integers(2, 3),
    n=st.sampled_from([2, 3, 5, 6]),
    seed=st.integers(0, 2**16),
    scrambled=st.booleans(),
    p=st.floats(0.05, 1.0),
)
def test_gate_matches_report_off_powers_of_two(kind, k, m, n, seed, scrambled, p):
    """_admit refuses with the class and message that ppt_report and the rank derive."""
    dims = TripartiteDims(k, m, n)
    if kind == "ppt":
        state = gen_canonical_state(GenSpec(dims, seed))[0]
    elif kind == "npt":
        state = rank_n_npt_state(dims, seed)
    else:
        state = gen_npt_control(dims, p=p, seed=seed)
    if scrambled:
        rng = np.random.default_rng([seed, 1])
        state = conjugate_local(state, *(haar_unitary(s, rng) for s in (k, m, n)))
    assert admission_result(state) == derived_result(state)


def test_large_rank_n_state_is_admitted_without_a_full_eigvalsh(monkeypatch):
    """At (8,8,8) every mask is certified PSD: no 512 x 512 eigvalsh runs."""
    state, _ = gen_canonical_state(GenSpec(TripartiteDims(8, 8, 8), 1))
    counts = count_verdict_work(monkeypatch, state.side)
    assert _admit(state) is False
    assert counts == {"certified": 4}


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_full_rank_refusal_decomposes_only_the_state(monkeypatch, p):
    """A full-rank noise mixture is refused by RankMismatch from the state's one spectrum.

    No mask is decomposed, whether its certificate refutes it or leaves it
    undecided, since RankMismatch outranks every mask verdict.
    """
    for seed in range(4):
        state = gen_npt_control(TripartiteDims(4, 4, 8), p=p, seed=seed)
        counts = count_verdict_work(monkeypatch, state.side)
        with pytest.raises(RankMismatch):
            _admit(state)
        assert counts["eigvalsh"] == 1
