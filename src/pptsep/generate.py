"""Reproducible instance generators: canonical states, worked examples, controls.

Determinism contract: every generator derives all of its randomness from
numpy SeedSequence(seed, spawn_key=(component,)) streams with fixed component
ids (0 = shared eigenbasis, 1 = generator eigenvalues, 2 = filter matrix,
3 = control pure state), so an identical spec yields bit-identical output on
a given numpy build, independent of call order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .canonical import CanonicalForm
from .errors import PreconditionError
from .linalg import (
    TripartiteDims,
    TripartiteState,
    dagger,
    hermitize,
    kron,
    psd_sqrt,
)


def _rng(seed: int, component: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(component,)))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


@dataclass(frozen=True)
class GenSpec:
    """Parameters for the random canonical-state generator."""

    dims: TripartiteDims
    seed: int
    generator_scale: float = 1.0
    f_condition_cap: float = 100.0

    def __post_init__(self):
        # Written so that NaN fails each test too.
        if not 0 <= self.generator_scale < np.inf:
            raise PreconditionError("generator_scale must be non-negative and finite")
        if not 1 <= self.f_condition_cap < np.inf:
            raise PreconditionError("f_condition_cap must be >= 1 and finite")


def gen_commuting_family(n: int, count: int, spec: GenSpec) -> list[np.ndarray]:
    """`count` normal, pairwise-commuting N x N matrices sharing one Haar eigenbasis.

    Each member is U0 diag(lambda_k) U0† with independent complex Gaussian
    eigenvalues of RMS magnitude generator_scale.
    """
    u0 = haar_unitary(n, _rng(spec.seed, 0))
    lam_rng = _rng(spec.seed, 1)
    out = []
    for _ in range(count):
        lam = spec.generator_scale * (
            lam_rng.standard_normal(n) + 1j * lam_rng.standard_normal(n)
        ) / np.sqrt(2)
        out.append(u0 @ np.diag(lam) @ dagger(u0))
    return out


def _random_filter(n: int, cap: float, rng: np.random.Generator) -> np.ndarray:
    """Random positive matrix with condition number at most cap (log-uniform spectrum)."""
    q = haar_unitary(n, rng)
    lo, hi = -np.log(cap) / 2, np.log(cap) / 2
    mu = np.exp(rng.uniform(lo, hi, n))
    return hermitize(q @ np.diag(mu) @ dagger(q))


def assemble_canonical_state(
    dims: TripartiteDims,
    a_list: list[np.ndarray],
    b_list: list[np.ndarray],
    f: np.ndarray,
) -> tuple[TripartiteState, CanonicalForm]:
    """Build the state carried by explicit canonical data and normalize its trace.

    Returns the state together with its ground-truth form; the filter in the
    form is rescaled by the normalization (the generators are untouched).
    """
    form = CanonicalForm(
        dims=dims,
        a_list=tuple(np.asarray(g, dtype=complex) for g in a_list),
        b_list=tuple(np.asarray(g, dtype=complex) for g in b_list),
        f=hermitize(np.asarray(f, dtype=complex)),
        local_u_a=np.eye(dims.k, dtype=complex),
        local_u_b=np.eye(dims.m, dtype=complex),
    )
    t = form.t_matrix()
    lift = kron(np.eye(dims.k * dims.m, dtype=complex), psd_sqrt(form.f))
    rho = hermitize(lift @ (dagger(t) @ t) @ lift)
    tr = float(rho.trace().real)
    return TripartiteState(dims, rho / tr), replace(form, f=form.f / tr)


def gen_canonical_state(spec: GenSpec) -> tuple[TripartiteState, CanonicalForm]:
    """Random state carrying the canonical structure by construction.

    Samples M-1 + K-1 commuting generators (shared eigenbasis) and a positive
    filter with condition number at most f_condition_cap, then assembles and
    normalizes.  The returned ground-truth form uses identity local unitaries.
    """
    k, m, n = spec.dims.as_tuple()
    family = gen_commuting_family(n, (m - 1) + (k - 1), spec)
    f = _random_filter(n, spec.f_condition_cap, _rng(spec.seed, 2))
    return assemble_canonical_state(spec.dims, family[: m - 1], family[m - 1 :], f)


def identity_corner_state(dims: TripartiteDims) -> TripartiteState:
    """The state whose only support is the block (0, 0), carrying I_N / N.

    Trivially separable — |0_A, 0_B> against the maximally mixed C — and the
    standard smoke test for witness search away from the far corner.
    """
    d = dims.total
    rho = np.zeros((d, d), dtype=complex)
    rho[: dims.n, : dims.n] = np.eye(dims.n) / dims.n
    return TripartiteState(dims, rho)


def qubit_corner_state(a: float) -> TripartiteState:
    """Three-qubit state supported on span{|000>, |001>} with coherence a.

    The (0, 0) block of the 4 x 4 grid is [[1/2, a], [a, 1/2]] and every other
    block vanishes, so the state is PSD iff |a| <= 1/2 (PreconditionError
    otherwise), has rank 2 for |a| < 1/2, and equals every one of its partial
    transposes entry for entry.
    """
    if abs(a) > 0.5:
        raise PreconditionError(f"|a| = {abs(a)} > 1/2 makes the state indefinite")
    rho = np.zeros((8, 8), dtype=complex)
    rho[:2, :2] = [[0.5, a], [a, 0.5]]
    return TripartiteState(TripartiteDims(2, 2, 2), rho)


def shifts_product_vectors(variant: str = "corrected") -> list[np.ndarray]:
    """The four three-qubit product vectors behind the bound-entangled complement.

    variant "corrected" uses |+, 0, 1> as third member, making the family
    mutually orthogonal (with |0,1,+>, |1,+,0>, |-,-,->); variant "literal"
    keeps the misprinted |+, 1, 0>, which overlaps the first member with
    Gram entry 1/2.
    """
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    if variant == "corrected":
        third = kron(kron(plus, zero), one)
    elif variant == "literal":
        third = kron(kron(plus, one), zero)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return [
        kron(kron(zero, one), plus),
        kron(kron(one, plus), zero),
        third,
        kron(kron(minus, minus), minus),
    ]


def shifts_complement_state(variant: str = "corrected") -> TripartiteState:
    """Normalized projector complement of the shifted product family.

    For the corrected (orthogonal) family this is the classic three-qubit
    bound-entangled state: PPT on every mask, rank 4, yet with no product
    vector in its range.  Its rank differs from N = 2, which is exactly why
    the rank-N machinery refuses it.  The literal variant is Hermitian with
    trace one but indefinite.
    """
    vecs = shifts_product_vectors(variant)
    rho = np.eye(8, dtype=complex)
    for v in vecs:
        rho -= np.outer(v, v.conj())
    rho = hermitize(rho)
    return TripartiteState(TripartiteDims(2, 2, 2), rho / float(rho.trace().real))


def ghz_vector(dims: TripartiteDims = TripartiteDims(2, 2, 2)) -> np.ndarray:
    """(|0,0,0> + |K-1,M-1,N-1>)/sqrt(2), entangled across every cut."""
    if dims.n < 2:
        raise PreconditionError("ghz_vector needs every local dimension >= 2")
    v = np.zeros(dims.total, dtype=complex)
    v[0] = 1 / np.sqrt(2)
    v[-1] = 1 / np.sqrt(2)
    return v


def gen_npt_control(
    dims: TripartiteDims, p: float, seed: int = 0, phi: np.ndarray | None = None
) -> TripartiteState:
    """Pure state mixed with white noise: (1-p) |phi><phi| + p I/(KMN).

    phi defaults to a seeded random unit vector (component stream 3).  For
    small p this is entangled with a negative partial transpose, which makes
    it the standard negative control for PPT checks.
    """
    if not 0 <= p <= 1:
        raise PreconditionError(f"mixing weight p = {p} outside [0, 1]")
    d = dims.total
    if phi is None:
        rng = _rng(seed, 3)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi = phi / np.linalg.norm(phi)
    else:
        phi = np.asarray(phi, dtype=complex).reshape(-1)
        if phi.shape != (d,):
            raise PreconditionError(f"phi has shape {phi.shape}, expected ({d},)")
    rho = (1 - p) * np.outer(phi, phi.conj()) + p * np.eye(d) / d
    return TripartiteState(dims, rho)
