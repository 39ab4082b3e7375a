"""Tests for witness search, corner rotation, and canonical-form extraction."""

import tracemalloc

import numpy as np
import pytest

import pptsep.canonical
from pptsep import (
    CanonicalForm,
    DimensionMismatch,
    GenSpec,
    NormalizationError,
    NotPptError,
    ProductWitness,
    RankMismatch,
    StructureViolation,
    TripartiteDims,
    TripartiteState,
    assemble_canonical_state,
    block,
    conjugate_local,
    extract_canonical,
    filter_corner,
    find_witness,
    gen_canonical_state,
    haar_unitary,
    identity_corner_state,
    numeric_rank,
    psd_inv_sqrt,
    psd_sqrt,
    qubit_corner_state,
    rotate_to_corner,
    sandwich_ab,
    shifts_complement_state,
)
from pptsep.canonical import _commutator_max, _completion_unitary, _kernel_residual
from pptsep.linalg import SANDWICH_CHUNK_BYTES, _permutation_of, dagger


def unit(dim, idx):
    e = np.zeros(dim, dtype=complex)
    e[idx] = 1.0
    return e


def reference_find_witness(state, mode, samples=256, seed=0):
    """find_witness as one draw, one sandwich and one SVD per candidate."""
    k, m, n = state.dims.as_tuple()
    candidates = [(unit(k, i), unit(m, j)) for i in range(k) for j in range(m)]
    if mode == "search":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(97,)))
        for _ in range(samples):
            ea = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            fb = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            candidates.append((ea / np.linalg.norm(ea), fb / np.linalg.norm(fb)))
    best = None
    for ea, fb in candidates:
        s = np.einsum(
            "i,j,ijnklm,k,l->nm",
            ea.conj(), fb.conj(), state.rho.reshape(k, m, n, k, m, n), ea, fb,
        )
        sv = np.linalg.svd((s + s.conj().T) / 2, compute_uv=False)
        cutoff = n * np.finfo(float).eps * float(sv[0])
        if int(np.count_nonzero(sv > cutoff)) != n:
            continue
        if best is None or sv[-1] > best[0]:
            best = (sv[-1], ea, fb)
    return None if best is None else best[1:]


def diagonal_qubit_state():
    """|000><000|/2 + |111><111|/2: no computational pair has a full-rank sandwich."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = 0.5
    return TripartiteState(TripartiteDims(2, 2, 2), rho)


class TestFindWitness:
    def test_identity_corner_state_found_away_from_far_corner(self):
        """Only the (|0>, |0>) pair has a full-rank sandwich on this state."""
        state = identity_corner_state(TripartiteDims(3, 3, 2))
        w = find_witness(state, "corner")
        assert w is not None and w.sandwich_rank == 2
        np.testing.assert_array_equal(w.e_a, unit(3, 0))
        np.testing.assert_array_equal(w.f_b, unit(3, 0))

    def test_explicit_far_corner_has_rank_zero(self):
        state = identity_corner_state(TripartiteDims(3, 3, 2))
        assert find_witness(state, "explicit", e_a=unit(3, 2), f_b=unit(3, 2)) is None
        assert numeric_rank(sandwich_ab(state, unit(3, 2), unit(3, 2))) == 0

    def test_corner_coherence_state(self):
        w = find_witness(qubit_corner_state(0.25), "corner")
        np.testing.assert_array_equal(w.e_a, unit(2, 0))
        np.testing.assert_array_equal(w.f_b, unit(2, 0))

    def test_picks_best_conditioned_candidate(self):
        """Among full-rank computational pairs the largest sigma_min wins."""
        dims = TripartiteDims(3, 3, 2)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=1))
        w = find_witness(state, "corner")
        best = None
        for i in range(3):
            for j in range(3):
                s = sandwich_ab(state, unit(3, i), unit(3, j))
                sv = np.linalg.svd((s + s.conj().T) / 2, compute_uv=False)
                if numeric_rank(s) == 2 and (best is None or sv[-1] > best[0]):
                    best = (sv[-1], i, j)
        np.testing.assert_array_equal(w.e_a, unit(3, best[1]))
        np.testing.assert_array_equal(w.f_b, unit(3, best[2]))

    def test_search_mode_beats_corner_mode_when_needed(self):
        """A state separable along the diagonal has no computational witness pair."""
        state = diagonal_qubit_state()
        assert find_witness(state, "corner") is None
        w = find_witness(state, "search", samples=64, seed=0)
        assert w is not None and w.sandwich_rank == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            find_witness(qubit_corner_state(0.1), "guess")

    def test_explicit_wrong_length_vector(self):
        state = identity_corner_state(TripartiteDims(3, 3, 2))
        with pytest.raises(DimensionMismatch):
            find_witness(state, "explicit", e_a=unit(2, 0), f_b=unit(3, 0))

    def test_explicit_non_unit_vector(self):
        state = identity_corner_state(TripartiteDims(3, 3, 2))
        with pytest.raises(NormalizationError):
            find_witness(state, "explicit", e_a=unit(3, 0), f_b=2 * unit(3, 0))

    @pytest.mark.parametrize("mode", ["corner", "search"])
    @pytest.mark.parametrize(
        "case",
        [(2, 2, 2, 0), (2, 2, 2, 1), (3, 3, 4, 0), (3, 3, 4, 3), (4, 4, 8, 1), (2, 3, 5, 2),
         (2, 3, 5, 4), (6, 6, 8, 2), (4, 4, 6, 3), (2, 2, 8, 5), "shifts-literal", "diagonal",
         "indefinite"],
    )
    def test_matches_per_candidate_reference(self, case, mode):
        """Stacked search picks bit-for-bit the pair a per-candidate loop picks.

        In search mode the (6,6,8) state has 36 + 256 candidates in chunks of
        28, so its last chunk is a partial one of 12.
        """
        if case == "shifts-literal":
            state, seed = shifts_complement_state("literal"), 5
        elif case == "indefinite":
            # The best-conditioned corner sandwich, diag(0.5, -0.3), is indefinite:
            # ranking by eigenvalues instead of singular values would skip it.
            diag = [0.5, -0.3, 0.2, 0.05, 0.3, 0.01, 0.14, 0.1]
            state, seed = TripartiteState(TripartiteDims(2, 2, 2), np.diag(diag)), 0
        elif case == "diagonal":
            state, seed = diagonal_qubit_state(), 0
        else:
            *dims, seed = case
            state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(*dims), seed=seed))
        want = reference_find_witness(state, mode, seed=seed)
        if case == "diagonal":
            # No basis pair works here, so in search mode a random draw must win.
            assert (want is None) == (mode == "corner")
        got = find_witness(state, mode, seed=seed)
        if want is None:
            assert got is None
            return
        assert got is not None and got.sandwich_rank == state.dims.n
        assert got.e_a.tobytes() == want[0].tobytes()
        assert got.f_b.tobytes() == want[1].tobytes()

    def test_chunks_do_not_divide_the_candidates_at_668(self):
        """The (6,6,8) reference case above ends in a partial chunk of a chunk within 1 MiB."""
        k, m, n = 6, 6, 8
        chunk = SANDWICH_CHUNK_BYTES // (16 * n * k * m * n)
        assert (k * m + 256) % chunk != 0 and chunk * 16 * n * k * m * n <= 2**20

    def test_search_peak_memory_is_bounded(self):
        """The chunked contraction keeps the (6,6,8) search's traced peak below 2 MiB.

        Unchunked, its (292, N, KM, N) GEMM result alone would be 10.8 MB.
        """
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(6, 6, 8), seed=2))
        tracemalloc.start()
        try:
            w = find_witness(state, "search")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w is not None and peak < 2 * 2**20

    @pytest.mark.parametrize(
        "mode, sandwich_calls", [("corner", 0), ("search", 0), ("explicit", 1)]
    )
    def test_one_stacked_svd_and_no_per_candidate_sandwich(self, monkeypatch, mode, sandwich_calls):
        """Corner and search modes contract every candidate at once; only an
        explicit pair goes through the validating sandwich_ab."""
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 4), seed=0))
        calls = {"sandwich_ab": 0, "svd": []}

        def counted_sandwich(*args):
            calls["sandwich_ab"] += 1
            return sandwich_ab(*args)

        real_svd = np.linalg.svd

        def counted_svd(a, *args, **kwargs):
            calls["svd"].append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(pptsep.canonical, "sandwich_ab", counted_sandwich)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        find_witness(state, mode, samples=40, e_a=unit(3, 0), f_b=unit(3, 0))
        candidates = {"corner": 9, "search": 9 + 40, "explicit": 1}[mode]
        assert calls == {"sandwich_ab": sandwich_calls, "svd": [(candidates, 4, 4)]}


class TestRotateToCorner:
    def test_basis_witness_gives_exact_permutation(self):
        dims = TripartiteDims(3, 3, 2)
        state = identity_corner_state(dims)
        w = find_witness(state, "corner")
        rotated, u_a, u_b = rotate_to_corner(state, w)
        np.testing.assert_array_equal(block(rotated, 8, 8), np.eye(2) / 2)
        np.testing.assert_array_equal(block(rotated, 0, 0), np.zeros((2, 2)))
        assert np.array_equal(u_a, u_a.astype(bool).astype(complex))  # 0/1 entries only

    def test_witness_already_at_corner_is_identity(self):
        dims = TripartiteDims(2, 2, 2)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=2))
        _, u_a, u_b = rotate_to_corner(state, ProductWitness(unit(2, 1), unit(2, 1), 2))
        np.testing.assert_array_equal(u_a, np.eye(2))
        np.testing.assert_array_equal(u_b, np.eye(2))

    @pytest.mark.parametrize(
        "mode,seed", [("corner", 1), ("corner", 0), ("search", 0), ("search", 6), ("explicit", 0)]
    )
    def test_rotated_state_is_bit_identical_to_the_gather_or_gemm(self, mode, seed):
        """Every witness kind rotates to the bytes that the permutation gather, or
        the two GEMMs, and the validating constructor give; an identity rotation
        (seed 1's corner witness, the explicit corner pair) returns the state itself."""
        dims = TripartiteDims(3, 3, 4)
        k, m, n = dims.as_tuple()
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=seed))
        w = find_witness(state, mode, e_a=unit(k, k - 1), f_b=unit(m, m - 1))
        rotated, u_a, u_b = rotate_to_corner(state, w)
        u_ab = np.kron(u_a, u_b)
        perm = _permutation_of(u_ab)
        if perm is not None:
            idx = (perm[:, None] * n + np.arange(n)).ravel()
            rho = state.rho[np.ix_(idx, idx)]
        else:
            d = state.side
            left = (u_ab @ state.rho.reshape(k * m, -1)).reshape(d, d)
            rho = dagger((u_ab @ dagger(left).reshape(k * m, -1)).reshape(d, d))
        assert rotated.rho.tobytes() == TripartiteState(dims, rho).rho.tobytes()
        identity = perm is not None and np.array_equal(perm, np.arange(k * m))
        assert (rotated is state) == identity
        assert identity == ((mode, seed) in {("corner", 1), ("explicit", 0)})

    def test_general_witness_unitary_and_spectrum_preserving(self):
        dims = TripartiteDims(3, 4, 2)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=3))
        rng = np.random.default_rng(4)
        e_a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f_b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        e_a, f_b = e_a / np.linalg.norm(e_a), f_b / np.linalg.norm(f_b)
        rotated, u_a, u_b = rotate_to_corner(state, ProductWitness(e_a, f_b, 2))
        np.testing.assert_allclose(u_a @ u_a.conj().T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(u_b @ u_b.conj().T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(u_a @ e_a, unit(3, 2), atol=1e-12)
        np.testing.assert_allclose(u_b @ f_b, unit(4, 3), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rotated.rho), np.linalg.eigvalsh(state.rho), atol=1e-12
        )


def reference_commutator_max(gens):
    """The normality and pair commutation defects, one product at a time."""
    worst = 0.0
    for i, g in enumerate(gens):
        worst = max(worst, float(np.linalg.norm(g @ dagger(g) - dagger(g) @ g)))
        for h in gens[i + 1 :]:
            worst = max(worst, float(np.linalg.norm(g @ h - h @ g)))
            worst = max(worst, float(np.linalg.norm(g @ dagger(h) - dagger(h) @ g)))
    return worst


class TestCommutatorMax:
    @pytest.mark.parametrize("count,n", [(1, 3), (2, 4), (10, 8)])
    @pytest.mark.parametrize("normal", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_per_pair_loop(self, count, n, normal, seed):
        rng = np.random.default_rng(seed)
        gens = []
        for _ in range(count):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if normal:
                u = haar_unitary(n, rng)
                g = u @ np.diag(np.diag(g)) @ dagger(u)
            gens.append(g)
        want = reference_commutator_max(gens)
        assert _commutator_max(gens) == pytest.approx(want, rel=1e-12, abs=0)


class TestExtractCanonical:
    def test_identity_corner_after_rotation(self):
        """Rotating the trivial state to the corner leaves zero generators and F = I/N."""
        dims = TripartiteDims(3, 3, 2)
        state = identity_corner_state(dims)
        rotated, _, _ = rotate_to_corner(state, find_witness(state, "corner"))
        form, diag = extract_canonical(rotated)
        assert diag.state_rank == diag.corner_rank == 2
        np.testing.assert_allclose(form.f, np.eye(2) / 2, atol=1e-14)
        for g in form.generators():
            assert np.linalg.norm(g) < 1e-12
        assert diag.reconstruction_residual < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 4), (3, 4, 3)])
    def test_roundtrip_recovers_ground_truth(self, dims):
        spec = GenSpec(dims=TripartiteDims(*dims), seed=5)
        state, truth = gen_canonical_state(spec)
        form, diag = extract_canonical(state)
        for got, want in zip(form.a_list, truth.a_list):
            assert np.linalg.norm(got - want) < 1e-8
        for got, want in zip(form.b_list, truth.b_list):
            assert np.linalg.norm(got - want) < 1e-8
        assert np.linalg.norm(form.f - truth.f) < 1e-8
        assert diag.reconstruction_residual < 1e-8
        assert diag.commutator_max < 1e-8
        assert diag.delta_norm < 1e-8
        assert diag.kernel_residual_max < 1e-8
        assert diag.f_condition < 1e6

    def test_equivariant_under_c_rotation(self):
        """Conjugating by I (x) I (x) U conjugates every generator and the filter by U."""
        dims = TripartiteDims(3, 3, 3)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=6))
        form, _ = extract_canonical(state)
        u = haar_unitary(3, np.random.default_rng(7))
        form2, _ = extract_canonical(conjugate_local(state, u_c=u))
        for g, g2 in zip(form.generators(), form2.generators()):
            assert np.linalg.norm(g2 - u @ g @ u.conj().T) < 1e-10
        assert np.linalg.norm(form2.f - u @ form.f @ u.conj().T) < 1e-10

    def test_rank_mismatch_on_complement_state(self):
        with pytest.raises(RankMismatch, match="rank 4"):
            extract_canonical(shifts_complement_state())

    def test_rank_mismatch_on_deficient_corner(self):
        """Full global rank but a singular corner block must be rotated first."""
        dims = TripartiteDims(2, 2, 2)
        state = identity_corner_state(dims)
        with pytest.raises(RankMismatch, match="corner"):
            extract_canonical(state)

    def test_not_ppt_rejected(self):
        """A rank-N NPT state with invertible corner fails the PPT gate, not the rank gate."""
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.kron(np.outer(phi, phi.conj()), np.eye(2) / 2)
        state = TripartiteState(TripartiteDims(2, 2, 2), rho)
        with pytest.raises(NotPptError):
            extract_canonical(state)

    def test_structure_violation_at_unreachable_tolerance(self):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 2), seed=8))
        with pytest.raises(StructureViolation):
            extract_canonical(state, tol=1e-16)

    @pytest.mark.parametrize("dims", [(2, 3, 5), (3, 3, 4)])
    def test_filter_matches_dense_lift(self, dims):
        """The blockwise filter equals kron(I_KM, F^{-1/2}) rho kron(I_KM, F^{-1/2})."""
        k, m, n = dims
        state, truth = gen_canonical_state(GenSpec(dims=TripartiteDims(*dims), seed=3))
        lift = np.kron(np.eye(k * m), psd_inv_sqrt(truth.f))
        want = lift @ state.rho @ lift
        np.testing.assert_allclose(filter_corner(state, truth.f), want, rtol=0, atol=1e-13)

    def test_ppt_checked_before_corner_rank(self, bell_mixture):
        """Rank N, NPT and a singular corner: the PPT gate refuses before the corner check."""
        assert numeric_rank(block(bell_mixture, 3, 3)) == 1
        with pytest.raises(NotPptError, match="A, B"):
            extract_canonical(bell_mixture)

    def test_filtering_roundtrip_reconstructs_state(self):
        dims = TripartiteDims(3, 4, 3)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=9))
        form, _ = extract_canonical(state)
        rho_f = filter_corner(state, form.f)
        lift = np.kron(np.eye(12), psd_sqrt(form.f))
        back = lift @ rho_f @ lift
        assert np.linalg.norm(back - state.rho) < 1e-10 * np.linalg.norm(state.rho)


class TestTMatrixLayout:
    def test_monomials_tile_the_last_block_row(self):
        """block(rho_f, KM-1, (u,v)) must equal GB_u GA_v on an assembled state."""
        dims = TripartiteDims(3, 3, 2)
        rng = np.random.default_rng(10)
        u0 = haar_unitary(2, rng)
        diag = lambda *v: u0 @ np.diag(np.asarray(v, dtype=complex)) @ u0.conj().T
        a_list = [diag(0.3, -0.2 + 0.4j), diag(1.1j, 0.7)]
        b_list = [diag(-0.5, 0.9), diag(0.2 + 0.2j, -1.0j)]
        f = np.eye(2) * 0.8 + np.outer([0.1, 0.2], [0.1, 0.2])
        state, truth = assemble_canonical_state(dims, a_list, b_list, f)
        rho_f = filter_corner(state, truth.f)
        n = 2
        for u in range(3):
            for v in range(3):
                got = rho_f[8 * n : 9 * n, (u * 3 + v) * n : (u * 3 + v + 1) * n]
                np.testing.assert_allclose(got, truth.monomial(u, v), atol=1e-12)

    def test_t_matrix_shape_and_identity_tail(self):
        dims = TripartiteDims(3, 4, 2)
        _, truth = gen_canonical_state(GenSpec(dims=dims, seed=11))
        t = truth.t_matrix()
        assert t.shape == (2, 24)
        np.testing.assert_array_equal(t[:, -2:], np.eye(2))


class TestKernelVectors:
    """The kernel-vector residual of ExtractionDiagnostics.kernel_residual_max.

    Each form comes from extract_canonical, so its frame is the state's own.
    """

    @staticmethod
    def residual(state, form):
        return _kernel_residual(filter_corner(state, form.f), form)

    def test_zero_for_identity_corner(self):
        dims = TripartiteDims(3, 3, 2)
        state = identity_corner_state(dims)
        rotated, u_a, u_b = rotate_to_corner(state, find_witness(state, "corner"))
        form, _ = extract_canonical(rotated)
        assert self.residual(rotated, form) < 1e-14

    @pytest.mark.parametrize("seed", [12, 13, 14])
    def test_small_on_generated_states(self, seed):
        dims = TripartiteDims(3, 3, 4)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=seed))
        form, _ = extract_canonical(state)
        assert self.residual(state, form) < 1e-10

    def test_detects_corner_perturbation(self):
        """1e-3 noise on the corner block must push the residual well past 1e-4."""
        dims = TripartiteDims(3, 3, 2)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=42))
        form, _ = extract_canonical(state)
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        h -= np.eye(2) * h.trace() / 2
        h *= 1e-3 / np.linalg.norm(h)
        rho = state.rho.copy()
        rho[16:18, 16:18] += h
        perturbed = TripartiteState(dims, rho)
        assert self.residual(perturbed, form) > 1e-4


def _qubit_form(a_count):
    eye = np.eye(2, dtype=complex)
    return CanonicalForm(TripartiteDims(2, 2, 2), (eye,) * a_count, (eye,), eye, eye, eye)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _qubit_form(0), DimensionMismatch),
        (lambda: find_witness(qubit_corner_state(0.3), "explicit", e_a=unit(2, 0)), ValueError),
        (lambda: _completion_unitary(np.ones(3), 2), DimensionMismatch),
    ],
    ids=["generator count", "explicit witness without f_b", "witness shape"],
)
def test_malformed_input_rejected(call, error):
    with pytest.raises(error):
        call()
