"""Tests for the tensor-core layer: indexing, partial transposes, blocks, PSD helpers."""

import ast
from pathlib import Path

import numpy as np
import pytest

import pptsep
from pptsep import (
    ALL_MASKS,
    MASK_NONE,
    DimensionMismatch,
    NormalizationError,
    NotHermitianError,
    NotPsdError,
    SubsystemMask,
    TripartiteDims,
    TripartiteState,
    block,
    conjugate_local,
    dagger,
    filter_corner,
    hermitize,
    identity_corner_state,
    numeric_rank,
    partial_transpose,
    psd_sqrt,
    qubit_corner_state,
    sandwich_ab,
    shifts_complement_state,
)
from pptsep.linalg import HERM_TOL, TRACE_TOL, _rank_above_cutoff, as_complex_matrix


def random_state(dims, seed):
    """A random Hermitian unit-trace state (not necessarily PSD) for structural tests."""
    rng = np.random.default_rng(seed)
    d = dims.total
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + z.conj().T) / 2
    h = h - np.eye(d) * (h.trace() - 1) / d
    return TripartiteState(dims, h)


def random_density(dims, seed):
    """A random full-rank density matrix."""
    rng = np.random.default_rng(seed)
    d = dims.total
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return TripartiteState(dims, rho / rho.trace())


class TestIndexing:
    def test_dims_validation(self):
        with pytest.raises(DimensionMismatch):
            TripartiteDims(1, 2, 2)
        with pytest.raises(DimensionMismatch):
            TripartiteDims(2, 2, 0)


class TestMasks:
    def test_labels(self):
        assert MASK_NONE.label == "none"
        assert SubsystemMask(True, False, True).label == "AC"

    def test_complement(self):
        assert SubsystemMask(True, False, False).complement() == SubsystemMask(False, True, True)


class TestPartialTranspose:
    def test_identity_mask_is_bitwise_identity(self):
        state = random_state(TripartiteDims(2, 3, 2), seed=0)
        np.testing.assert_array_equal(partial_transpose(state, MASK_NONE), state.rho)

    @pytest.mark.parametrize("mask", ALL_MASKS)
    def test_involution_is_exact(self, mask):
        """Applying the same mask twice returns the original matrix bit for bit."""
        state = random_state(TripartiteDims(2, 2, 3), seed=1)
        once = TripartiteState(state.dims, partial_transpose(state, mask))
        np.testing.assert_array_equal(partial_transpose(once, mask), state.rho)

    def test_full_mask_is_plain_transpose(self):
        state = random_state(TripartiteDims(3, 2, 2), seed=2)
        np.testing.assert_array_equal(
            partial_transpose(state, SubsystemMask(True, True, True)), state.rho.T
        )

    @pytest.mark.parametrize("mask", ALL_MASKS[1:4])
    def test_trace_and_hermiticity_preserved_exactly(self, mask):
        state = random_state(TripartiteDims(2, 2, 4), seed=3)
        pt = partial_transpose(state, mask)
        assert pt.trace() == state.rho.trace()
        np.testing.assert_array_equal(pt, pt.conj().T)

    def test_example_state_fixed_under_every_mask(self):
        """The corner-coherence state equals each of its partial transposes exactly."""
        state = qubit_corner_state(0.3)
        for mask in ALL_MASKS:
            np.testing.assert_array_equal(partial_transpose(state, mask), state.rho)


class TestBlock:
    def test_identity_corner_block(self):
        dims = TripartiteDims(3, 3, 4)
        state = identity_corner_state(dims)
        np.testing.assert_array_equal(block(state, 0, 0), np.eye(4) / 4)
        np.testing.assert_array_equal(block(state, 8, 8), np.zeros((4, 4)))

    def test_blocks_tile_the_matrix(self):
        dims = TripartiteDims(2, 2, 3)
        state = random_state(dims, seed=4)
        rebuilt = np.block([[block(state, r, c) for c in range(4)] for r in range(4)])
        np.testing.assert_array_equal(rebuilt, state.rho)

    def test_hermitian_block_pairs(self):
        state = random_state(TripartiteDims(2, 3, 2), seed=5)
        np.testing.assert_array_equal(block(state, 1, 4), block(state, 4, 1).conj().T)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            block(identity_corner_state(TripartiteDims(2, 2, 2)), 4, 0)


class TestSandwich:
    def test_corner_coherence_block(self):
        state = qubit_corner_state(0.3)
        e0 = np.array([1, 0], dtype=complex)
        out = sandwich_ab(state, e0, e0)
        np.testing.assert_allclose(out, [[0.5, 0.3], [0.3, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("dims", [(3, 3, 2), (2, 3, 5)])
    def test_matches_block_of_rotated_state(self, dims):
        """<e,f|rho|e,f> equals the far-corner block after rotating (e,f) there."""
        from pptsep import ProductWitness, rotate_to_corner

        dims = TripartiteDims(*dims)
        k, m, n = dims.as_tuple()
        state = random_density(dims, seed=6)
        rng = np.random.default_rng(7)
        e_a = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        f_b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        e_a, f_b = e_a / np.linalg.norm(e_a), f_b / np.linalg.norm(f_b)
        direct = sandwich_ab(state, e_a, f_b)
        rotated, _, _ = rotate_to_corner(state, ProductWitness(e_a, f_b, n))
        np.testing.assert_allclose(block(rotated, k * m - 1, k * m - 1), direct, atol=1e-12)

    def test_requires_unit_vectors(self):
        state = qubit_corner_state(0.1)
        with pytest.raises(NormalizationError):
            sandwich_ab(state, np.array([2.0, 0]), np.array([1.0, 0]))

    def test_psd_for_psd_state(self):
        state = random_density(TripartiteDims(2, 2, 3), seed=8)
        e = np.array([0.6, 0.8], dtype=complex)
        s = sandwich_ab(state, e, e)
        assert np.linalg.eigvalsh((s + s.conj().T) / 2).min() > -1e-14


def test_dagger_and_hermitize_act_on_each_matrix_of_a_stack():
    """On a stack they give, bit for bit, what they give on each matrix alone."""
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    for f in (dagger, hermitize):
        assert f(stack).tobytes() == np.stack([f(x) for x in stack]).tobytes()
    assert dagger(stack[0]).tobytes() == stack[0].conj().T.tobytes()


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((5, 5))) == 0

    def test_corner_coherence_state_has_rank_two(self):
        assert numeric_rank(qubit_corner_state(0.3).rho) == 2

    def test_complement_state_has_rank_four(self):
        assert numeric_rank(shifts_complement_state().rho) == 4

    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_projector_rank(self, r):
        rng = np.random.default_rng(r)
        z = rng.standard_normal((6, r)) + 1j * rng.standard_normal((6, r))
        q, _ = np.linalg.qr(z)
        assert numeric_rank(q @ q.conj().T) == r

    def test_empty_matrix(self):
        assert numeric_rank(np.zeros((0, 3))) == 0

    def test_stacked_rule_counts_each_row(self):
        """Rows at and one ulp above the cutoff 4 * eps * sigma_max, counted per row."""
        order, eps = 4, np.finfo(float).eps
        edge = order * eps * 2.0
        sv = np.array(
            [
                [2.0, 1.0, 0.5, 0.25],
                [2.0, 1.0, edge, 0.0],
                [2.0, np.nextafter(edge, 1.0), edge, 0.0],
                [3.0, 3.0, 3.0, 3.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        want = [sum(v > order * eps * max(row) for v in row) for row in sv.tolist()]
        assert want == [4, 2, 2, 4, 0]
        assert _rank_above_cutoff(sv, order).tolist() == want
        assert [_rank_above_cutoff(row, order) for row in sv] == want


def test_no_tolerance_literal_outside_the_policy_block():
    """Every float below 1e-3 in the package is the value of a module-level name in linalg."""
    src = Path(pptsep.__file__).parent
    policy = {
        ("linalg.py", node.value.lineno, node.value.col_offset)
        for node in ast.parse((src / "linalg.py").read_text()).body
        if isinstance(node, ast.Assign)
    }
    stray = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < node.value < 1e-3
        and (path.name, node.lineno, node.col_offset) not in policy
    ]
    assert stray == []


class TestPsdRoots:
    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        x = z @ z.conj().T
        s = psd_sqrt(x)
        np.testing.assert_allclose(s @ s, x, atol=1e-12 * np.linalg.norm(x))

    def test_inv_sqrt_whitens(self):
        """filter_corner's F^{-1/2} takes the corner block F to the identity."""
        rng = np.random.default_rng(10)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = z @ z.conj().T + np.eye(4)
        rho = np.zeros((16, 16), dtype=complex)
        rho[12:, 12:] = x / np.trace(x).real
        state = TripartiteState(TripartiteDims(2, 2, 4), rho)
        rho_f, _ = filter_corner(state, state.rho[12:, 12:])
        np.testing.assert_allclose(rho_f[12:, 12:], np.eye(4), atol=1e-12)

    def test_small_negative_eigenvalues_clipped(self):
        x = np.diag([1.0, -1e-14])
        s = psd_sqrt(x)
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-7)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: as_complex_matrix(np.ones(3)), ValueError),
        (lambda: psd_sqrt(np.ones((2, 3))), DimensionMismatch),
    ],
    ids=["1-d matrix", "non-square root"],
)
def test_malformed_input_rejected(call, error):
    with pytest.raises(error):
        call()


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1] = 0.5
        with pytest.raises(NotHermitianError):
            TripartiteState(TripartiteDims(2, 2, 2), rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NormalizationError):
            TripartiteState(TripartiteDims(2, 2, 2), np.eye(8) / 4)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            TripartiteState(TripartiteDims(2, 2, 2), np.eye(6) / 6)

    def test_rejects_non_finite(self):
        rho = np.eye(8, dtype=complex) / 8
        rho[3, 3] = np.nan
        with pytest.raises(ValueError):
            TripartiteState(TripartiteDims(2, 2, 2), rho)

    @pytest.mark.parametrize("value", [1e200, -1e308])
    def test_rejects_an_overflowing_norm(self, value):
        """One huge entry makes rho far from Hermitian, but its defect and norm both overflow."""
        rho = np.eye(8, dtype=complex) / 8
        rho[7, 6] = value
        with pytest.raises(ValueError, match="Frobenius norm overflows"):
            TripartiteState(TripartiteDims(2, 2, 2), rho)

    @pytest.mark.parametrize("factor, ok", [(0.5, True), (1.5, False)])
    def test_hermitian_defect_at_its_bound(self, factor, ok):
        """The defect ||X - X†||_F is held to HERM_TOL * max(1, ||X||_F), here ||X||_F ~ 70."""
        x = np.zeros((8, 8), dtype=complex)
        x[0, 0], x[1, 1] = 50.0, -49.0
        skew = np.zeros((8, 8), dtype=complex)
        skew[0, 1], skew[1, 0] = 1.0, -1.0  # ||skew - skew†||_F = 2 sqrt(2)
        raw = x + factor * HERM_TOL * np.linalg.norm(x) / (2 * np.sqrt(2)) * skew
        if ok:
            TripartiteState(TripartiteDims(2, 2, 2), raw)
        else:
            with pytest.raises(NotHermitianError):
                TripartiteState(TripartiteDims(2, 2, 2), raw)

    @pytest.mark.parametrize("factor, ok", [(0.5, True), (1.5, False)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_trace_at_its_bound(self, factor, ok, sign):
        raw = np.eye(8, dtype=complex) * (1 + sign * factor * TRACE_TOL) / 8
        if ok:
            TripartiteState(TripartiteDims(2, 2, 2), raw)
        else:
            with pytest.raises(NormalizationError):
                TripartiteState(TripartiteDims(2, 2, 2), raw)

    def test_stores_its_own_read_only_hermitian_part(self):
        """rho is hermitize(input), exactly Hermitian, unaliased and read-only."""
        rng = np.random.default_rng(3)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        raw = z @ z.conj().T
        raw = raw / raw.trace().real + 1e-12 * (z - z.conj().T)  # within HERM_TOL
        state = TripartiteState(TripartiteDims(2, 2, 2), raw)
        assert not np.array_equal(raw, raw.conj().T)
        np.testing.assert_array_equal(state.rho, state.rho.conj().T)
        assert state.rho.tobytes() == hermitize(raw).tobytes()

        before = state.rho.tobytes()
        raw[0, 0] += 5
        assert state.rho.tobytes() == before
        assert state.rho.trace().real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            state.rho[0, 0] = 0


class TestConjugateLocal:
    def test_preserves_trace_and_spectrum(self):
        from pptsep import haar_unitary

        dims = TripartiteDims(2, 2, 3)
        state = random_density(dims, seed=11)
        rng = np.random.default_rng(12)
        out = conjugate_local(
            state,
            u_a=haar_unitary(2, rng),
            u_b=haar_unitary(2, rng),
            u_c=haar_unitary(3, rng),
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.rho), np.linalg.eigvalsh(state.rho), atol=1e-12
        )

    @pytest.mark.parametrize("factors", ["abc", "ab", "b", "c", ""])
    @pytest.mark.parametrize("dims", [(2, 3, 5), (3, 2, 4)])
    def test_matches_dense_kron_formula(self, dims, factors):
        """The blockwise kernel equals (U_A ⊗ U_B ⊗ U_C) rho (·)† with the operator formed."""
        from pptsep import haar_unitary

        state = random_state(TripartiteDims(*dims), seed=13)
        rng = np.random.default_rng(14)
        ops = [haar_unitary(d, rng) if f in factors else np.eye(d) for f, d in zip("abc", dims)]
        w = np.kron(np.kron(ops[0], ops[1]), ops[2])
        out = conjugate_local(state, **{f"u_{f}": ops["abc".index(f)] for f in factors})
        np.testing.assert_allclose(out.rho, w @ state.rho @ w.conj().T, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "dims,perm_a,perm_b",
        [((2, 2, 3), [0, 1], [0, 1]), ((2, 2, 3), [1, 0], [0, 1]), ((2, 3, 5), [1, 0], [2, 0, 1])],
        ids=["identity", "swap", "k-ne-m"],
    )
    def test_permutation_moves_entries_without_rounding(self, dims, perm_a, perm_b):
        """A permutation U_A ⊗ U_B gives exactly the entries of the dense formula."""
        state = random_state(TripartiteDims(*dims), seed=15)
        u_a = np.eye(dims[0], dtype=complex)[perm_a]
        u_b = np.eye(dims[1], dtype=complex)[perm_b]
        out = conjugate_local(state, u_a=u_a, u_b=u_b)
        w = np.kron(np.kron(u_a, u_b), np.eye(dims[2]))
        np.testing.assert_array_equal(out.rho, w @ state.rho @ w.conj().T)
