"""Tests for simultaneous diagonalization, decomposition, and ensemble certification."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from pptsep import (
    CertificationFailure,
    CommutatorViolation,
    DegeneracyUnresolved,
    DimensionMismatch,
    EnsembleTerm,
    GenSpec,
    NoWitness,
    NormalizationError,
    NotPptError,
    RankMismatch,
    SeparableEnsemble,
    TripartiteDims,
    TripartiteState,
    block,
    conjugate_local,
    decompose,
    find_witness,
    gen_canonical_state,
    gen_commuting_family,
    haar_unitary,
    hermitize,
    identity_corner_state,
    numeric_rank,
    ppt_report,
    qubit_corner_state,
    shifts_complement_state,
    simultaneous_diagonalize,
    verify_ensemble,
)
from pptsep import ensembles
from pptsep.linalg import CERT_TOL, TRACE_TOL, VEC_TOL


def count_linalg_calls(monkeypatch, matches):
    """Count np.linalg eigvalsh, eigh, svd and cholesky calls whose argument matches."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(a, *args, **kw):
            if matches(a):
                counts[name] += 1
            return fn(a, *args, **kw)

        return wrapper

    for name in ("eigvalsh", "eigh", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def count_full_size_calls(monkeypatch, side):
    """count_linalg_calls on side x side inputs."""
    return count_linalg_calls(monkeypatch, lambda a: np.shape(a)[-2:] == (side, side))


def offdiag_norm(u, g):
    d = u.conj().T @ g @ u
    return np.linalg.norm(d - np.diag(np.diag(d)))


class TestSimultaneousDiagonalize:
    def test_zero_family(self):
        table = simultaneous_diagonalize([np.zeros((3, 3))])
        np.testing.assert_allclose(table.u @ table.u.conj().T, np.eye(3), atol=1e-14)
        np.testing.assert_array_equal(table.values[0], np.zeros(3))

    def test_already_diagonal_family(self):
        g1 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        g2 = np.diag([1j, -1j, 0.5j])
        table = simultaneous_diagonalize([g1, g2])
        for g in (g1, g2):
            assert offdiag_norm(table.u, g) < 1e-12
        np.testing.assert_allclose(sorted(table.values[0].real), [1, 2, 3], atol=1e-12)

    def test_constructed_family_oracle(self):
        """Eigenvalue columns must match the construction's joint spectrum."""
        spec = GenSpec(dims=TripartiteDims(3, 3, 4), seed=0)
        fam = gen_commuting_family(4, 3, spec)
        table = simultaneous_diagonalize(fam)
        for g in fam:
            assert offdiag_norm(table.u, g) < 1e-10
        # every joint eigenvalue tuple of the table appears in the construction
        u0_cols = np.linalg.eig(fam[0])[0]
        got = np.sort_complex(table.values[0])
        np.testing.assert_allclose(np.sort_complex(u0_cols), got, atol=1e-10)

    def test_eigenbasis_diagonalizes_each_generator(self):
        spec = GenSpec(dims=TripartiteDims(2, 2, 8), seed=1)
        fam = gen_commuting_family(8, 2, spec)
        table = simultaneous_diagonalize(fam)
        np.testing.assert_allclose(table.u.conj().T @ table.u, np.eye(8), atol=1e-12)
        for g, vals in zip(fam, table.values):
            np.testing.assert_allclose(
                g @ table.u, table.u @ np.diag(vals), atol=1e-10
            )

    def test_phase_convention(self):
        """Each column's largest-magnitude entry is real positive."""
        spec = GenSpec(dims=TripartiteDims(2, 2, 5), seed=2)
        fam = gen_commuting_family(5, 2, spec)
        table = simultaneous_diagonalize(fam)
        for c in range(5):
            piv = table.u[np.argmax(np.abs(table.u[:, c])), c]
            assert abs(piv.imag) < 1e-12 and piv.real > 0

    def test_rejects_noncommuting(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(CommutatorViolation):
            simultaneous_diagonalize([x, z])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simultaneous_diagonalize([])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatch):
            simultaneous_diagonalize([np.eye(2), np.eye(3)])

    def test_unresolved_after_the_last_retry(self, monkeypatch):
        """When no attempt reaches the bound, the error names the best residual and the bound."""
        calls = []

        def never_diagonal(u, gens):
            calls.append(1)
            return 0.5 + len(calls)

        monkeypatch.setattr(ensembles, "_offdiag_max", never_diagonal)
        g = np.diag([0.1, 0.2, 0.3]).astype(complex)  # norm < 1: the bound is tol itself
        with pytest.raises(DegeneracyUnresolved) as err:
            simultaneous_diagonalize([g], tol=1e-8)
        assert "residual 1.0e-08 in 8 attempts (best 1.500e+00)" in str(err.value)
        assert len(calls) == 8

    @pytest.mark.parametrize(
        "residuals, attempts",
        [([0.5], 1), ([1.5, 0.5], 2), ([1.5], None)],
        ids=["accepted", "retried", "refused"],
    )
    def test_accept_bound(self, monkeypatch, residuals, attempts):
        """An off-diagonal residual of 0.5 * tol * s ends the attempts; one of 1.5 * tol * s
        is retried, and refused after the last retry."""
        g = np.diag([3.0, 1.0, 2.0]).astype(complex)  # s = ||g||_F > 1
        accept = 1e-8 * np.linalg.norm(g)
        calls = []

        def offdiag(u, gens):
            calls.append(1)
            return residuals[min(len(calls), len(residuals)) - 1] * accept

        monkeypatch.setattr(ensembles, "_offdiag_max", offdiag)
        if attempts:
            simultaneous_diagonalize([g], tol=1e-8)
            assert len(calls) == attempts
        else:
            with pytest.raises(DegeneracyUnresolved):
                simultaneous_diagonalize([g], tol=1e-8)

    def test_degenerate_group_inside_the_spectrum_refined_by_filter(self):
        """A double joint eigenvalue between two simple ones is one run of eigh's columns."""
        rng = np.random.default_rng(4)
        u = haar_unitary(4, rng)
        g = u @ np.diag([1.0, 2.0, 2.0, 3.0]).astype(complex) @ u.conj().T
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f = z @ z.conj().T
        table = simultaneous_diagonalize([g], refine_by=f)
        group = np.flatnonzero(np.abs(table.values[0] - 2) < 1e-8)
        assert len(group) == 2 and group[1] == group[0] + 1
        sub = table.u[:, group]
        compressed = sub.conj().T @ f @ sub
        assert abs(compressed[0, 1]) < 1e-12 * np.linalg.norm(f)

    def test_degenerate_family_refined_by_filter(self):
        """With zero generators the refine hook hands the basis choice to F."""
        f = np.array([[0.5, 0.3], [0.3, 0.5]])
        table = simultaneous_diagonalize([np.zeros((2, 2))], refine_by=f)
        compressed = table.u.conj().T @ f @ table.u
        np.testing.assert_allclose(
            compressed, np.diag([0.2, 0.8]), atol=1e-12
        )


class TestDecomposeExamples:
    def test_identity_corner_gives_uniform_ensemble(self):
        dims = TripartiteDims(3, 3, 4)
        state = identity_corner_state(dims)
        ens = decompose(state)
        assert len(ens.terms) == 4
        for t in ens.terms:
            assert t.p == pytest.approx(0.25, abs=1e-12)
            assert abs(t.vec_a[0]) == pytest.approx(1.0, abs=1e-12)
            assert abs(t.vec_b[0]) == pytest.approx(1.0, abs=1e-12)
        # the C vectors form an orthonormal basis
        c = np.column_stack([t.vec_c for t in ens.terms])
        np.testing.assert_allclose(c.conj().T @ c, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.49])
    def test_corner_coherence_weights(self, a):
        """The certified ensemble carries weights 1/2 +- a, not the naive equal split."""
        ens = decompose(qubit_corner_state(a))
        assert len(ens.terms) == 2
        assert sorted(t.p for t in ens.terms) == pytest.approx(
            [0.5 - a, 0.5 + a], abs=1e-12
        )
        residual, ok = verify_ensemble(qubit_corner_state(a), ens, tol=1e-12)
        assert ok and residual < 1e-12

    def test_complement_state_rejected_by_rank(self):
        with pytest.raises(RankMismatch):
            decompose(shifts_complement_state())

    def test_corner_mode_can_fail_where_search_succeeds(self):
        dims = TripartiteDims(2, 2, 2)
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 0.5
        rho[7, 7] = 0.5
        state = TripartiteState(dims, rho)
        with pytest.raises(NoWitness):
            decompose(state, witness="corner")
        ens = decompose(state, witness="search", seed=0)
        residual, ok = verify_ensemble(state, ens, tol=1e-10)
        assert ok

    def test_npt_state_refused_before_the_witness_search(self, bell_mixture):
        """Rank N and NPT with no corner witness: NotPptError, not NoWitness, in every mode."""
        assert find_witness(bell_mixture, "corner") is None
        for mode in ("corner", "search"):
            with pytest.raises(NotPptError):
                decompose(bell_mixture, witness=mode)

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"witness": "explicit", "e_a": [0, 0, 1], "f_b": [0, 0, 1]}],
        ids=["search", "explicit"],
    )
    def test_one_set_of_spectra_per_decomposition(self, monkeypatch, kwargs):
        """decompose runs no eigvalsh, SVD, eigh or Cholesky on KMN x KMN matrices.

        Each of masks none, A, B and C is certified PSD by its N-pivot
        certificate; the state's spectrum is never needed on success.
        """
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 4), seed=2))
        counts = count_full_size_calls(monkeypatch, state.side)
        decompose(state, **kwargs)
        assert counts == {}

    def test_corner_block_is_decomposed_without_an_svd(self, monkeypatch):
        """One eigvalsh of F gives its rank and condition number; no SVD of F runs.

        The two eigh of F are the filter's F^{-1/2} and the ensemble's F^{1/2}.
        """
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 4), seed=2))
        f = block(state, 8, 8)  # the corner witness (|2>, |2>) needs no rotation
        counts = count_linalg_calls(monkeypatch, lambda a: np.array_equal(a, f))
        decompose(state, witness="explicit", e_a=[0, 0, 1], f_b=[0, 0, 1])
        assert counts == {"eigvalsh": 1, "eigh": 2}

    def test_nan_explicit_witness_is_a_typed_refusal(self):
        """A NaN witness vector gives NormalizationError, not numpy's LinAlgError."""
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 4), seed=2))
        with pytest.raises(NormalizationError):
            decompose(state, witness="explicit", e_a=[np.nan, 0, 1], f_b=[0, 0, 1])

    @pytest.mark.parametrize("mode", ["search", "corner"])
    def test_rank_refusal_decomposes_the_state_once(self, monkeypatch, mode):
        """A PPT state of rank 4 > N = 2 is proved PSD by no N-pivot certificate; the
        state's one spectrum gives RankMismatch before any mask is decomposed."""
        state = shifts_complement_state()
        counts = count_full_size_calls(monkeypatch, state.side)
        own = count_linalg_calls(monkeypatch, lambda a: a is state.rho)
        with pytest.raises(RankMismatch) as info:
            decompose(state, witness=mode)
        assert str(info.value) == "state rank 4 != N = 2; canonical form does not apply"
        assert info.value.__suppress_context__
        assert counts == {"eigvalsh": 1}
        assert own == {"eigvalsh": 1}

    def test_no_witness_refusal_decomposes_the_state_once(self, monkeypatch):
        """A rank-N state with no corner witness keeps NoWitness after the rank test."""
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = rho[7, 7] = 0.5
        state = TripartiteState(TripartiteDims(2, 2, 2), rho)
        counts = count_full_size_calls(monkeypatch, state.side)
        with pytest.raises(NoWitness):
            decompose(state, witness="corner")
        assert counts == {"eigvalsh": 1}

    @pytest.mark.parametrize("mode", ["search", "corner"])
    def test_npt_refusal_decomposes_only_the_state(self, monkeypatch, bell_mixture, mode):
        """Masks A and B are refuted on a principal submatrix; only the state itself is
        decomposed."""
        counts = count_full_size_calls(monkeypatch, bell_mixture.side)
        with pytest.raises(NotPptError):
            decompose(bell_mixture, witness=mode)
        assert counts == {"eigvalsh": 1}

    def test_npt_refusal_keeps_no_matrix_alive(self, bell_mixture):
        """The refusal's traceback frames hold no KMN x KMN matrix besides the input's.

        A caller that keeps the exception keeps those frames, and the masked
        partial transposes with them, until the cyclic collector runs.
        """
        side = bell_mixture.side
        with pytest.raises(NotPptError) as info:
            decompose(bell_mixture)
        tb = info.value.__traceback__
        while tb is not None:
            for value in tb.tb_frame.f_locals.values():
                items = value if isinstance(value, (list, tuple)) else [value]
                for item in items:
                    if isinstance(item, np.ndarray) and item.shape == (side, side):
                        assert item is bell_mixture.rho
            tb = tb.tb_next


def near_rank_n_state(dims, seed, eps):
    """rho_eps = (1 - eps) rho + eps |v><v|: a generated rank-N rho and a random unit v."""
    state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(*dims), seed=seed))
    rng = np.random.default_rng([seed, 7])
    v = rng.standard_normal(state.side) + 1j * rng.standard_normal(state.side)
    v /= np.linalg.norm(v)
    return TripartiteState(state.dims, (1 - eps) * state.rho + eps * np.outer(v, v.conj()))


class TestRankBoundary:
    """On success the rank precondition is "within tol of rank N"."""

    def test_state_within_tol_of_rank_n_is_certified(self):
        """Numeric rank N + 1, so the rank test alone would refuse it, yet it certifies."""
        state = near_rank_n_state((3, 3, 4), 0, 1e-11)
        assert numeric_rank(state.rho) == 5
        spectrum = np.linalg.eigvalsh(state.rho)[::-1]
        ens = decompose(state)
        _, ok = verify_ensemble(state, ens)
        assert ok and len(ens.terms) == 4
        # Eckart-Young-Mirsky: the certified 4-term ensemble bounds the tail.
        assert np.linalg.norm(spectrum[4:]) <= 1e-8 * np.linalg.norm(state.rho)

    def test_state_beyond_tol_of_rank_n_is_refused(self):
        with pytest.raises(RankMismatch, match="state rank 5 != N = 4"):
            decompose(near_rank_n_state((3, 3, 4), 0, 1e-7))


class TestDecomposeRandomStates:
    @pytest.mark.parametrize("dims,seed", [((2, 2, 2), 0), ((3, 3, 4), 1), ((3, 4, 3), 2)])
    def test_certifies_generated_states(self, dims, seed):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(*dims), seed=seed))
        ens = decompose(state, witness="corner")
        residual, ok = verify_ensemble(state, ens)
        assert ok and residual < 1e-8
        assert ens.total_weight() == pytest.approx(1.0, abs=1e-10)
        assert len(ens.terms) == dims[2]

    def test_reconstruction_is_ppt(self):
        """The reconstructed mixture is itself a valid PPT state."""
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 2), seed=3))
        ens = decompose(state, witness="corner")
        rebuilt = TripartiteState(state.dims, ens.reconstruct())
        assert ppt_report(rebuilt).overall_ppt

    def test_weights_invariant_across_witness_choices(self):
        """Non-degenerate joint spectra pin the ensemble, so weights match as multisets."""
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 3), seed=4))
        w1 = sorted(t.p for t in decompose(state, witness="corner").terms)
        w2 = sorted(t.p for t in decompose(state, witness="search", seed=9).terms)
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    def test_invariant_under_c_relabeling(self):
        dims = TripartiteDims(3, 3, 3)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=5))
        perm = np.eye(3)[[2, 0, 1]].astype(complex)
        permuted = conjugate_local(state, u_c=perm)
        w1 = sorted(t.p for t in decompose(state, witness="corner").terms)
        w2 = sorted(t.p for t in decompose(permuted, witness="corner").terms)
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    def test_full_pipeline_after_local_scrambling(self):
        """Witness search recovers a certified ensemble on a locally rotated state."""
        dims = TripartiteDims(3, 3, 3)
        state, _ = gen_canonical_state(GenSpec(dims=dims, seed=6))
        rng = np.random.default_rng(7)
        scrambled = conjugate_local(
            state,
            u_a=haar_unitary(3, rng),
            u_b=haar_unitary(3, rng),
            u_c=haar_unitary(3, rng),
        )
        ens = decompose(scrambled, tol=1e-7, witness="search", seed=0)
        residual, ok = verify_ensemble(scrambled, ens, tol=1e-7)
        assert ok and residual < 1e-7


class TestVerifyEnsemble:
    def test_self_reconstruction(self):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(2, 2, 3), seed=8))
        ens = decompose(state, witness="corner")
        residual, ok = verify_ensemble(state, ens, tol=1e-10)
        assert ok and residual < 1e-12

    def test_historical_equal_weight_split_fails(self):
        """The naive equal-weight two-term ensemble misses the coherence entirely."""
        a = 0.3
        state = qubit_corner_state(a)
        e0 = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        naive = SeparableEnsemble(
            dims=state.dims,
            terms=(
                EnsembleTerm(p=0.5, vec_a=e0, vec_b=e0, vec_c=plus),
                EnsembleTerm(p=0.5, vec_a=e0, vec_b=e0, vec_c=minus),
            ),
        )
        residual, ok = verify_ensemble(state, naive)
        assert not ok
        expected = a * np.sqrt(2) / np.linalg.norm(state.rho)
        assert residual == pytest.approx(expected, abs=1e-12)

    def test_detects_broken_total_weight(self):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(2, 2, 2), seed=9))
        ens = decompose(state, witness="corner")
        broken = SeparableEnsemble(
            dims=ens.dims,
            terms=(
                EnsembleTerm(ens.terms[0].p * 1.5, *
                             (ens.terms[0].vec_a, ens.terms[0].vec_b, ens.terms[0].vec_c)),
            ) + ens.terms[1:],
        )
        _, ok = verify_ensemble(state, broken)
        assert not ok

    def test_detects_denormalized_vectors(self):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(2, 2, 2), seed=10))
        ens = decompose(state, witness="corner")
        t0 = ens.terms[0]
        bad = SeparableEnsemble(
            dims=ens.dims,
            terms=(EnsembleTerm(t0.p, t0.vec_a * 1.001, t0.vec_b, t0.vec_c),) + ens.terms[1:],
        )
        _, ok = verify_ensemble(state, bad)
        assert not ok

    def test_detects_non_positive_weight(self):
        """A zero-weight term keeps the residual and the total weight; only min p fails."""
        state = identity_corner_state(TripartiteDims(2, 2, 3))
        ens = decompose(state)
        tampered = replace(ens, terms=ens.terms + (replace(ens.terms[0], p=0.0),))
        residual, ok = verify_ensemble(state, tampered)
        assert not ok and residual <= 1e-8
        _, failures = ensembles._certification_failures(state, tampered, 1e-8)
        assert failures == ["min p 0.000e+00 <= 0"]

    def test_failure_names_only_the_broken_invariants(self, monkeypatch):
        """Weights scaled by 1 + 1e-9 keep the residual inside tol; it must not be blamed."""
        real = ensembles.ensemble_from_form

        def skewed(form, tol=1e-8, seed=0):
            ens = real(form, tol=tol, seed=seed)
            return replace(ens, terms=tuple(replace(t, p=t.p * (1 + 1e-9)) for t in ens.terms))

        monkeypatch.setattr(ensembles, "ensemble_from_form", skewed)
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 4), seed=1))
        try:
            ens = decompose(state)
        except CertificationFailure as err:
            message = str(err)
            assert "residual" not in message
            assert "|sum p - 1|" in message and "TRACE_TOL" in message
            assert "min p" not in message and "vector-norm" not in message
        else:
            residual, ok = verify_ensemble(state, ens)
            assert ok and residual <= 1e-8

    def test_reconstruct_matches_per_term_sum(self):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(2, 3, 5), seed=12))
        ens = decompose(state)
        want = sum(
            t.p * np.outer(w, w.conj())
            for t in ens.terms
            for w in [np.kron(np.kron(t.vec_a, t.vec_b), t.vec_c)]
        )
        np.testing.assert_allclose(ens.reconstruct(), want, rtol=0, atol=1e-15)
        empty = SeparableEnsemble(dims=ens.dims, terms=())
        np.testing.assert_array_equal(empty.reconstruct(), np.zeros((30, 30)))

    @pytest.mark.parametrize("dims", [(2, 3, 5), (4, 4, 8)])
    def test_reconstruct_builds_the_per_term_kron_products(self, dims):
        """The broadcast product vectors equal np.kron's, bit for bit."""
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(*dims), seed=12))
        ens = decompose(state)
        w = np.array([np.kron(np.kron(t.vec_a, t.vec_b), t.vec_c) for t in ens.terms])
        p = np.array([t.p for t in ens.terms])
        np.testing.assert_array_equal(ens.reconstruct(), (w.T * p) @ w.conj())

    def test_dimension_mismatch(self):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(2, 2, 2), seed=11))
        ens = decompose(state, witness="corner")
        other = identity_corner_state(TripartiteDims(3, 3, 2))
        with pytest.raises(DimensionMismatch):
            verify_ensemble(other, ens)


@pytest.fixture(scope="module")
def certified():
    """A state and its certified ensemble."""
    state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 4), seed=3))
    return state, decompose(state)


def failed_invariants(state, ensemble):
    """The first word of each failure line of the final certificate at CERT_TOL."""
    _, failures = ensembles._certification_failures(state, ensemble, CERT_TOL)
    return [line.split(" ")[0] for line in failures]


EDGES = [(0.5, True), (1.5, False)]


class TestCertificateEdges:
    """Each bound of the final certificate is met at 0.5x and broken at 1.5x, alone."""

    @pytest.mark.parametrize("factor, ok", EDGES)
    def test_reconstruction_residual(self, certified, factor, ok):
        """The ensemble against its own reconstruction plus a traceless Hermitian term."""
        _, ens = certified
        recon = ens.reconstruct()
        rng = np.random.default_rng(0)
        h = hermitize(rng.standard_normal(recon.shape) + 1j * rng.standard_normal(recon.shape))
        h -= np.eye(len(h)) * h.trace() / len(h)
        h *= factor * CERT_TOL * np.linalg.norm(recon) / np.linalg.norm(h)
        state = TripartiteState(ens.dims, recon + h)
        residual, ok_verdict = verify_ensemble(state, ens)
        assert residual == pytest.approx(factor * CERT_TOL, rel=1e-6)
        assert ok_verdict == ok
        assert failed_invariants(state, ens) == ([] if ok else ["reconstruction"])

    @pytest.mark.parametrize("factor, ok", EDGES)
    def test_total_weight(self, certified, factor, ok):
        state, ens = certified
        scaled = replace(
            ens, terms=tuple(replace(t, p=t.p * (1 + factor * TRACE_TOL)) for t in ens.terms)
        )
        assert abs(scaled.total_weight() - 1) == pytest.approx(factor * TRACE_TOL, rel=1e-3)
        assert verify_ensemble(state, scaled)[1] == ok
        assert failed_invariants(state, scaled) == ([] if ok else ["|sum"])

    @pytest.mark.parametrize("factor, ok", EDGES)
    def test_vector_norm(self, certified, factor, ok):
        """One vector off unit length by factor * VEC_TOL.

        Its term's projector grows by 2 * factor * VEC_TOL, which keeps the
        residual far inside tol, so the term's p is left as it is: scaling p
        back would move sum p by about as much, the size of TRACE_TOL.
        """
        state, ens = certified
        t0 = ens.terms[0]
        bumped = replace(
            ens, terms=(replace(t0, vec_a=t0.vec_a * (1 + factor * VEC_TOL)),) + ens.terms[1:]
        )
        residual, ok_verdict = verify_ensemble(state, bumped)
        assert residual < CERT_TOL / 10
        assert ok_verdict == ok
        assert failed_invariants(state, bumped) == ([] if ok else ["vector-norm"])
