"""Canonical form of rank-N PPT states with a full-rank corner block.

Given a PPT state rho on C^K (x) C^M (x) C^N whose global rank is N and whose
corner block F = <K-1, M-1| rho |K-1, M-1> is invertible, the filtering
rho_f = (I (x) I (x) F^{-1/2}) rho (I (x) I (x) F^{-1/2}) forces every block of
rho_f into the Gram form

    block(rho_f, r, c) = T_r† T_c,      T_{(u, v)} = GB_u · GA_v,

where GA_{M-1} = GB_{K-1} = I and the remaining GA_v, GB_u are N x N matrices
that are normal and commute pairwise (and with each other's adjoints).  The
generators are read directly from the last block row of rho_f, and the claim
is then validated globally by reconstructing rho_f from them.  Everything that
certifies separability downstream (common eigenvectors, product ensembles)
only ever touches this canonical data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankMismatch, StructureViolation
from .linalg import (
    CERT_TOL,
    TripartiteDims,
    TripartiteState,
    _conjugate_blocks,
    _family_scale,
    _rank_above_cutoff,
    _sandwiches,
    as_complex_matrix,
    block,
    conjugate_local,
    dagger,
    hermitize,
    sandwich_ab,
)
from .ppt import _admit, _require_rank

# Not called here; benchmarks/spans.py wraps these module attributes, so they
# stay importable from here.
from .linalg import numeric_rank  # noqa: F401
from .ppt import ppt_report  # noqa: F401


@dataclass(frozen=True)
class ProductWitness:
    """A product pair (e_a, f_b) whose sandwich block has full rank N."""

    e_a: np.ndarray
    f_b: np.ndarray
    sandwich_rank: int


@dataclass(frozen=True)
class CanonicalForm:
    """Generators and filter extracted from a state, plus the local rotation used.

    a_list has M-1 entries (GA_0 .. GA_{M-2}) and b_list has K-1 entries
    (GB_0 .. GB_{K-2}); the identity closing each family is implicit.  local_u_a
    and local_u_b record the A/B rotation that moved the witness to the corner,
    so the form refers to the rotated frame: applying conjugate_local with them
    to the original state reproduces the state the form was extracted from.
    """

    dims: TripartiteDims
    a_list: tuple[np.ndarray, ...]
    b_list: tuple[np.ndarray, ...]
    f: np.ndarray
    local_u_a: np.ndarray
    local_u_b: np.ndarray

    def __post_init__(self):
        if len(self.a_list) != self.dims.m - 1 or len(self.b_list) != self.dims.k - 1:
            raise DimensionMismatch(
                f"need {self.dims.m - 1} A-side and {self.dims.k - 1} B-side generators, "
                f"got {len(self.a_list)} and {len(self.b_list)}"
            )

    def generators(self) -> list[np.ndarray]:
        """All non-identity generators, A-side first."""
        return list(self.a_list) + list(self.b_list)

    def monomial(self, u: int, v: int) -> np.ndarray:
        """The block factor GB_u · GA_v at grid position (u, v)."""
        n = self.dims.n
        ga = self.a_list[v] if v < self.dims.m - 1 else np.eye(n, dtype=complex)
        gb = self.b_list[u] if u < self.dims.k - 1 else np.eye(n, dtype=complex)
        return gb @ ga

    def t_matrix(self) -> np.ndarray:
        """The N x (KMN) block row [T_0 ... T_{KM-1}] with T_{(u,v)} = GB_u GA_v."""
        blocks = [self.monomial(u, v) for u in range(self.dims.k) for v in range(self.dims.m)]
        return np.hstack(blocks)


@dataclass(frozen=True)
class ExtractionDiagnostics:
    """Residuals and ranks recorded while extracting a canonical form."""

    state_rank: int
    corner_rank: int
    reconstruction_residual: float
    commutator_max: float
    delta_norm: float
    kernel_residual_max: float
    f_condition: float


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of z divided by its 2-norm, bit for bit as z[i] / np.linalg.norm(z[i]).

    norm of a complex vector is sqrt(re . re + im . im), one dot per part; the
    same dot calls run here per row, and the sqrt and division once for all
    rows, without norm's per-call argument handling.
    """
    sq = np.array([re.dot(re) + im.dot(im) for re, im in zip(z.real, z.imag)])
    return z / np.sqrt(sq).reshape(-1, 1)


def find_witness(
    state: TripartiteState,
    mode: str = "corner",
    *,
    samples: int = 256,
    seed: int = 0,
    e_a: np.ndarray | None = None,
    f_b: np.ndarray | None = None,
) -> ProductWitness | None:
    """Search for a product pair whose sandwich block on C has full rank N.

    mode "corner" scans the K*M computational-basis pairs; "search" adds
    `samples` Haar-like random product pairs on top of those; "explicit" tests
    exactly the supplied (e_a, f_b).  A candidate has rank N when every
    singular value of its Hermitized sandwich exceeds n * eps * sigma_max, the
    rank rule of numeric_rank.  Among the full-rank candidates the one with the
    largest smallest singular value wins (ties broken by scan order), which
    keeps the downstream filter as well-conditioned as the state allows.
    Returns None when no candidate reaches rank N.

    One chunked contraction (linalg._sandwiches) computes the sandwiches of
    all corner and search candidates, and one batched SVD their singular
    values; only an explicit pair goes through sandwich_ab, which validates
    it.  The random pairs come from one block of draws laid out so that
    candidates and choice are bit-identical to drawing and testing them one
    at a time.
    """
    k, m, n = state.dims.as_tuple()
    if mode in ("corner", "search"):
        # (|i>, |j>) at scan position i * M + j.
        eas = np.repeat(np.eye(k, dtype=complex), m, axis=0)
        fbs = np.tile(np.eye(m, dtype=complex), (k, 1))
        if mode == "search":
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(97,)))
            # Columns [Re e_a | Im e_a | Re f_b | Im f_b] replay the stream of
            # four per-sample draws.  Each vector is normalized on its own:
            # a vectorized norm(axis=1) rounds differently in the last bit.
            draws = rng.standard_normal((samples, 2 * (k + m)))
            eas = np.concatenate([eas, _unit_rows(draws[:, :k] + 1j * draws[:, k : 2 * k])])
            fbs = np.concatenate(
                [fbs, _unit_rows(draws[:, 2 * k : 2 * k + m] + 1j * draws[:, 2 * k + m :])]
            )
        sandwiches = _sandwiches(state, eas, fbs)
    elif mode == "explicit":
        if e_a is None or f_b is None:
            raise ValueError("explicit mode needs both e_a and f_b")
        eas, fbs = [np.asarray(e_a, dtype=complex)], [np.asarray(f_b, dtype=complex)]
        sandwiches = sandwich_ab(state, eas[0], fbs[0])[None]
    else:
        raise ValueError(f"unknown witness mode {mode!r}")

    # Singular values, not eigenvalues: an indefinite input state can give an
    # indefinite sandwich, whose rank and conditioning are set by |lambda|.
    sv = np.linalg.svd(hermitize(sandwiches), compute_uv=False)
    full_rank = _rank_above_cutoff(sv, n) == n
    if not full_rank.any():
        return None
    best = int(np.argmax(np.where(full_rank, sv[:, -1], -np.inf)))
    return ProductWitness(e_a=eas[best].copy(), f_b=fbs[best].copy(), sandwich_rank=n)


def _is_basis_vector(v: np.ndarray) -> int | None:
    """Index of the single unit entry if v is exactly a computational basis vector."""
    hits = np.flatnonzero(v != 0)
    if hits.size == 1 and v[hits[0]] == 1.0:
        return int(hits[0])
    return None


def _completion_unitary(e: np.ndarray, dim: int) -> np.ndarray:
    """A unitary U with U @ e = |dim-1>, built by orthonormal completion of e.

    Computational-basis witnesses get an exact permutation (so rotation by U
    moves matrix entries without any rounding); general vectors go through a
    QR completion whose last column is pinned to e itself.
    """
    e = np.asarray(e, dtype=complex).reshape(-1)
    if e.shape != (dim,):
        raise DimensionMismatch(f"witness vector has shape {e.shape}, expected ({dim},)")
    idx = _is_basis_vector(e)
    if idx is not None:
        perm = np.eye(dim, dtype=complex)
        if idx != dim - 1:
            perm[[idx, dim - 1]] = perm[[dim - 1, idx]]
        return perm
    q, _ = np.linalg.qr(np.column_stack([e, np.eye(dim)]))
    return dagger(np.column_stack([q[:, 1:dim], e]))


def rotate_to_corner(
    state: TripartiteState, witness: ProductWitness
) -> tuple[TripartiteState, np.ndarray, np.ndarray]:
    """Rotate A and B so the witness pair lands on (|K-1>, |M-1>).

    Returns (rotated_state, u_a, u_b) with
    rotated = (u_a (x) u_b (x) I) rho (·)† and u_a @ e_a = |K-1>,
    u_b @ f_b = |M-1>; the corner block of the rotated state then equals
    sandwich_ab(state, e_a, f_b).
    """
    k, m, _ = state.dims.as_tuple()
    u_a = _completion_unitary(witness.e_a, k)
    u_b = _completion_unitary(witness.f_b, m)
    return conjugate_local(state, u_a=u_a, u_b=u_b), u_a, u_b


def filter_corner(state: TripartiteState, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the corner filter: (I (x) I (x) F^{-1/2}) rho (I (x) I (x) F^{-1/2}).

    The one place that decides F.  One eigh of the Hermitian corner block F
    gives its rank, by _rank_above_cutoff on the signed spectrum, so a
    negative eigenvalue counts as missing rank: F must be positive definite
    by the package's rank rule, or RankMismatch is raised.  The same
    eigenpairs give s = F^{-1/2}.  The lift is block diagonal, so it is
    applied as s @ X @ s to each N x N block X of the state: O(N d²) work for
    d = KMN, and the KMN x KMN lift is never formed.

    Returns (rho_f, w): the filtered state and the ascending eigenvalues of F.
    """
    k, m, n = state.dims.as_tuple()
    f = as_complex_matrix(f, "corner block")
    if f.shape != (n, n):
        raise DimensionMismatch(f"corner block has shape {f.shape}, expected ({n}, {n})")
    w, v = np.linalg.eigh(f)
    rank = _rank_above_cutoff(w, n)
    if rank != n:
        raise RankMismatch(
            f"corner block rank {rank} != N = {n}; rotate a full-rank witness first"
        )
    s = hermitize(v @ np.diag(1.0 / np.sqrt(w)) @ dagger(v))
    return hermitize(_conjugate_blocks(state.rho, k * m, n, s, s)), w


def _kernel_residual(rho_f: np.ndarray, form: CanonicalForm) -> float:
    """Worst normalized |rho_f psi| over the designated kernel vectors.

    For each generator G sitting at block slot s (GA_v at (K-1, v), GB_u at
    (u, M-1)) and each basis vector |e> of C^N, the vector
    psi = |s>|e> - |K-1, M-1> G|e> must be annihilated by rho_f.  rho_f psi is
    the slot's column block of rho_f minus the corner's column block times G,
    and |psi|² = 1 + |G e|², so no psi is formed.
    """
    k, m, n = form.dims.as_tuple()
    corner = (k * m - 1) * n
    slots = [((k - 1) * m + v) * n for v in range(m - 1)] + [
        (u * m + (m - 1)) * n for u in range(k - 1)
    ]
    worst = 0.0
    for slot, g in zip(slots, form.generators()):
        img = rho_f[:, slot : slot + n] - rho_f[:, corner : corner + n] @ g
        norms = np.linalg.norm(img, axis=0) / np.sqrt(1.0 + np.linalg.norm(g, axis=0) ** 2)
        worst = max(worst, float(norms.max()))
    return worst


def _commutator_max(gens: list[np.ndarray]) -> float:
    """Largest normality or (cross-)commutation defect over the family.

    The Frobenius norms of G G† - G† G for every member and of
    G_i G_j - G_j G_i and G_i G_j† - G_j† G_i for every pair i < j, formed
    by batched products over the stacked family and one stacked norm.
    """
    g = np.asarray(gens, dtype=complex)
    gd = dagger(g)
    i, j = np.triu_indices(len(g), 1)
    defects = np.concatenate(
        [
            g @ gd - gd @ g,
            g[i] @ g[j] - g[j] @ g[i],
            g[i] @ gd[j] - gd[j] @ g[i],
        ]
    )
    return float(np.linalg.norm(defects, axis=(-2, -1)).max(initial=0.0))


def _extract_admitted(
    state: TripartiteState, tol: float
) -> tuple[CanonicalForm, ExtractionDiagnostics]:
    """extract_canonical for a state that has already passed ppt._admit."""
    k, m, n = state.dims.as_tuple()
    km = k * m
    f = block(state, km - 1, km - 1)  # a diagonal block of rho: exactly Hermitian
    # Called through the module attribute, which benchmarks/spans.py wraps.
    rho_f, ev = filter_corner(state, f)
    # last[:, c] is block (KM-1, c) of rho_f.
    last = rho_f[(km - 1) * n :].reshape(n, km, n)
    a_list = tuple(last[:, (k - 1) * m + v].copy() for v in range(m - 1))
    b_list = tuple(last[:, u * m + (m - 1)].copy() for u in range(k - 1))
    form = CanonicalForm(
        dims=state.dims,
        a_list=a_list,
        b_list=b_list,
        f=f,
        local_u_a=np.eye(k, dtype=complex),
        local_u_b=np.eye(m, dtype=complex),
    )

    t = form.t_matrix()
    residual = rho_f - dagger(t) @ t
    recon = float(np.linalg.norm(residual) / np.linalg.norm(rho_f))
    gens = form.generators()
    comm = _commutator_max(gens)
    d = slice(((k - 2) * m + (m - 2)) * n, ((k - 2) * m + (m - 1)) * n)
    delta = float(np.linalg.norm(residual[d, d]))

    kernel = _kernel_residual(rho_f, form)
    diagnostics = ExtractionDiagnostics(
        state_rank=n,
        corner_rank=n,
        reconstruction_residual=recon,
        commutator_max=comm,
        delta_norm=delta,
        kernel_residual_max=kernel,
        f_condition=float(ev[-1] / ev[0]),
    )
    if recon > tol or comm > tol * _family_scale(gens) ** 2:
        raise StructureViolation(
            f"filtered state is not in product-monomial form at tol {tol:.1e} "
            f"(reconstruction residual {recon:.3e}, commutator max {comm:.3e})"
        )
    return form, diagnostics


def extract_canonical(
    state: TripartiteState, tol: float = CERT_TOL
) -> tuple[CanonicalForm, ExtractionDiagnostics]:
    """Extract the canonical form of a rank-N PPT state with invertible corner.

    Checks, in order: global rank == N (RankMismatch), PPT across all masks
    (NotPptError), both from a Cholesky certificate per mask and one
    Hermitian eigendecomposition of the state (see ppt._admit), then a
    corner block F of rank N on its signed spectrum, i.e. positive definite
    (RankMismatch, from filter_corner).  After filtering, the generators are
    read from the last block row and the structural claim is validated
    globally: the filtered state must match T†T within tol (relative), and
    the generator family must be normal and pairwise commuting within tol
    scaled by the squared generator norm; otherwise StructureViolation is
    raised.  The reconstruction residual and the block-consistency gap
    delta_norm both come from the one residual matrix rho_f - T†T.  Returns
    the form together with diagnostics.
    """
    if not _admit(state):
        _require_rank(state)
    return _extract_admitted(state, tol)

