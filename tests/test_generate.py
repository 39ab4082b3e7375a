"""Tests for the reproducible instance generators."""

import numpy as np
import pytest

from pptsep import (
    ALL_MASKS,
    GenSpec,
    NormalizationError,
    PreconditionError,
    TripartiteDims,
    assemble_canonical_state,
    block,
    extract_canonical,
    gen_canonical_state,
    gen_commuting_family,
    gen_npt_control,
    ghz_vector,
    haar_unitary,
    identity_corner_state,
    numeric_rank,
    partial_transpose,
    ppt_report,
    psd_sqrt,
    qubit_corner_state,
    shifts_complement_state,
    shifts_product_vectors,
)


class TestCommutingFamily:
    def test_commutation_and_normality(self):
        spec = GenSpec(dims=TripartiteDims(3, 3, 5), seed=0)
        fam = gen_commuting_family(5, 4, spec)
        assert len(fam) == 4
        for i, g in enumerate(fam):
            assert np.linalg.norm(g @ g.conj().T - g.conj().T @ g) < 1e-12
            for h in fam[i + 1 :]:
                assert np.linalg.norm(g @ h - h @ g) < 1e-12
                assert np.linalg.norm(g @ h.conj().T - h.conj().T @ g) < 1e-12

    def test_scale_controls_magnitude(self):
        small = gen_commuting_family(
            4, 1, GenSpec(dims=TripartiteDims(2, 2, 4), seed=1, generator_scale=1e-3)
        )[0]
        big = gen_commuting_family(
            4, 1, GenSpec(dims=TripartiteDims(2, 2, 4), seed=1, generator_scale=10.0)
        )[0]
        np.testing.assert_allclose(big, small * 1e4, atol=1e-12)

    def test_zero_count(self):
        assert gen_commuting_family(3, 0, GenSpec(dims=TripartiteDims(2, 2, 3), seed=2)) == []

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(6, np.random.default_rng(3))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


class TestAssemble:
    def test_zero_generators_identity_filter(self):
        """All-zero data collapses onto the far corner: uniform block, nothing else."""
        dims = TripartiteDims(3, 3, 2)
        zero = np.zeros((2, 2), dtype=complex)
        state, truth = assemble_canonical_state(
            dims, [zero, zero], [zero, zero], np.eye(2)
        )
        np.testing.assert_allclose(block(state, 8, 8), np.eye(2) / 2, atol=1e-15)
        assert np.linalg.norm(state.rho[:16, :]) < 1e-15
        np.testing.assert_allclose(truth.f, np.eye(2) / 2, atol=1e-15)

    def test_truth_reassembles_identically(self):
        dims = TripartiteDims(3, 3, 3)
        state, truth = gen_canonical_state(GenSpec(dims=dims, seed=4))
        again, _ = assemble_canonical_state(
            dims, list(truth.a_list), list(truth.b_list), truth.f
        )
        np.testing.assert_allclose(again.rho, state.rho, atol=1e-13)


class TestCanonicalGenerator:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 4), (4, 4, 8)])
    def test_factor_form_matches_the_dense_lift(self, dims, seed):
        """rho = LL† equals the lift formula (I (x) F^{1/2}) T†T (I (x) F^{1/2}) / trace,
        with T built pair by pair, to 1e-14 of ||rho||_F."""
        k, m, n = dims
        state, truth = gen_canonical_state(GenSpec(dims=TripartiteDims(*dims), seed=seed))
        eye = np.eye(n, dtype=complex)
        t = np.hstack([gb @ ga for gb in [*truth.b_list, eye] for ga in [*truth.a_list, eye]])
        lift = np.kron(np.eye(k * m), psd_sqrt(truth.f))
        dense = lift @ t.conj().T @ t @ lift
        dense /= dense.trace().real
        assert np.linalg.norm(state.rho - dense) <= 1e-14 * np.linalg.norm(state.rho)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 4), (4, 4, 3)])
    def test_generated_states_satisfy_the_hypotheses(self, dims):
        state, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(*dims), seed=5))
        assert ppt_report(state).overall_ppt
        assert numeric_rank(state.rho) == dims[2]
        km = dims[0] * dims[1]
        assert numeric_rank(block(state, km - 1, km - 1)) == dims[2]

    def test_condition_cap_respected(self):
        spec = GenSpec(dims=TripartiteDims(2, 2, 6), seed=6, f_condition_cap=50.0)
        _, truth = gen_canonical_state(spec)
        w = np.linalg.eigvalsh(truth.f)
        assert w[-1] / w[0] <= 50.0

    def test_deterministic_per_seed(self):
        spec = GenSpec(dims=TripartiteDims(3, 3, 2), seed=7)
        s1, t1 = gen_canonical_state(spec)
        s2, t2 = gen_canonical_state(spec)
        np.testing.assert_array_equal(s1.rho, s2.rho)
        np.testing.assert_array_equal(t1.f, t2.f)
        s3, _ = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 2), seed=8))
        assert not np.array_equal(s1.rho, s3.rho)

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            GenSpec(dims=TripartiteDims(2, 2, 2), seed=0, generator_scale=-1.0)
        with pytest.raises(PreconditionError):
            GenSpec(dims=TripartiteDims(2, 2, 2), seed=0, f_condition_cap=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["generator_scale", "f_condition_cap"])
    def test_spec_rejects_non_finite(self, field, value):
        with pytest.raises(PreconditionError):
            GenSpec(dims=TripartiteDims(2, 2, 2), seed=0, **{field: value})


class TestWorkedExamples:
    def test_identity_corner_layout(self):
        dims = TripartiteDims(2, 2, 8)
        state = identity_corner_state(dims)
        np.testing.assert_array_equal(block(state, 0, 0), np.eye(8) / 8)
        assert state.rho.trace() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5])
    def test_corner_coherence_valid_range(self, a):
        state = qubit_corner_state(a)
        assert state.rho.trace() == pytest.approx(1.0, abs=1e-15)
        assert numeric_rank(state.rho) == (1 if a == 0.5 else 2)

    def test_corner_coherence_precondition(self):
        with pytest.raises(PreconditionError):
            qubit_corner_state(0.7)

    def test_product_family_corrected_is_orthonormal(self):
        vecs = shifts_product_vectors("corrected")
        gram = np.array([[np.vdot(v, w) for w in vecs] for v in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)

    def test_product_family_literal_has_half_overlaps(self):
        """The misprinted third vector overlaps the first two with Gram entries 1/2."""
        vecs = shifts_product_vectors("literal")
        gram = np.array([[np.vdot(v, w) for w in vecs] for v in vecs])
        assert gram[0, 2] == pytest.approx(0.5, abs=1e-14)
        assert gram[1, 2] == pytest.approx(0.5, abs=1e-14)
        off = gram - np.diag(np.diag(gram))
        for i, j in [(0, 2), (2, 0), (1, 2), (2, 1)]:
            off[i, j] = 0
        np.testing.assert_allclose(off, np.zeros((4, 4)), atol=1e-14)

    def test_complement_corrected_is_ppt_rank_four(self):
        state = shifts_complement_state("corrected")
        assert state.rho.trace() == pytest.approx(1.0, abs=1e-14)
        assert numeric_rank(state.rho) == 4
        for mask in ALL_MASKS:
            np.testing.assert_allclose(
                partial_transpose(state, mask), state.rho, atol=1e-12
            )
        assert ppt_report(state, tol=1e-12).overall_ppt

    def test_complement_corrected_spectrum(self):
        """The product-family complement has eigenvalues {0 x4, 1/4 x4}."""
        w = np.sort(np.linalg.eigvalsh(shifts_complement_state().rho))
        np.testing.assert_allclose(w, [0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_complement_literal_is_indefinite(self):
        """The misprint makes the complement indefinite: min eigenvalue -1/(4 sqrt 2).

        The Gram matrix of the first three vectors is [[1,0,.5],[0,1,.5],[.5,.5,1]]
        with top eigenvalue 1 + 1/sqrt(2), so I - sum P dips to -1/sqrt(2) before
        the trace normalization by 1/4.
        """
        state = shifts_complement_state("literal")
        w = np.linalg.eigvalsh(state.rho)
        assert w[0] == pytest.approx(-1 / (4 * np.sqrt(2)), abs=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            shifts_product_vectors("fixed")


class TestControls:
    def test_ghz_vector_shape_and_norm(self):
        v = ghz_vector()
        assert v.shape == (8,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_pure_white_mix_extremes(self):
        dims = TripartiteDims(2, 2, 2)
        mixed = gen_npt_control(dims, p=1.0)
        np.testing.assert_allclose(mixed.rho, np.eye(8) / 8, atol=1e-15)
        report = ppt_report(gen_npt_control(dims, p=0.5, seed=1))
        assert not report.overall_ppt

    def test_control_is_deterministic(self):
        dims = TripartiteDims(2, 3, 2)
        a = gen_npt_control(dims, p=0.3, seed=5)
        b = gen_npt_control(dims, p=0.3, seed=5)
        np.testing.assert_array_equal(a.rho, b.rho)

    def test_bad_weight_rejected(self):
        with pytest.raises(PreconditionError):
            gen_npt_control(TripartiteDims(2, 2, 2), p=1.5)

    def test_denormalized_phi_rejected(self):
        with pytest.raises(NormalizationError):
            gen_npt_control(TripartiteDims(2, 2, 2), p=0.0, phi=np.ones(8))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ghz_vector(TripartiteDims(2, 2, 1)),
            lambda: gen_npt_control(TripartiteDims(2, 2, 2), p=0.5, phi=np.ones(4) / 2),
        ],
        ids=["ghz with N = 1", "phi of the wrong length"],
    )
    def test_precondition_violations(self, call):
        with pytest.raises(PreconditionError):
            call()
