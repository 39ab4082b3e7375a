"""Canonical form of rank-N PPT states with a full-rank corner block.

Given a PPT state rho on C^K (x) C^M (x) C^N whose global rank is N and whose
corner block F = <K-1, M-1| rho |K-1, M-1> is invertible, the filtering
rho_f = (I (x) I (x) F^{-1/2}) rho (I (x) I (x) F^{-1/2}) forces every block of
rho_f into the Gram form

    block(rho_f, r, c) = T_r† T_c,      T_{(u, v)} = GB_u · GA_v,

where GA_{M-1} = GB_{K-1} = I and the remaining GA_v, GB_u are N x N matrices
that are normal and commute pairwise (and with each other's adjoints).

The claim is about rho's N-dimensional range, so the extraction reads it off
the d x N factor L with rho ~ LL† that the admission builds (ppt._admit),
never off the KMN x KMN matrix.  With L's N x N blocks L_r and the corner
c = KM-1, F = L_c L_c†, and T_r = (L_c^{-1} L_r)† is the block above in the
frame of the unitary W = F^{-1/2} L_c: exactly W† T_r W.  Everything that
certifies separability downstream (common eigenvectors, product ensembles)
only ever touches this canonical data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    _unit_pair,
    as_complex_matrix,
    conjugate_local,
    dagger,
    hermitize,
)
from .ppt import _admit, _require_rank

# Not called here; benchmarks/spans.py wraps these module attributes, so they
# stay importable from here.
from .linalg import numeric_rank, sandwich_ab  # noqa: F401
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
        k, m, n = self.dims.as_tuple()
        if len(self.a_list) != m - 1 or len(self.b_list) != k - 1:
            raise DimensionMismatch(
                f"need {m - 1} A-side and {k - 1} B-side generators, "
                f"got {len(self.a_list)} and {len(self.b_list)}"
            )
        # A wrongly sized matrix would otherwise surface later, as numpy's own error.
        named = [("generator", g, n) for g in self.generators()] + [("f", self.f, n)]
        named += [("local_u_a", self.local_u_a, k), ("local_u_b", self.local_u_b, m)]
        for name, x, side in named:
            if (shape := np.shape(x)) != (side, side):
                raise DimensionMismatch(f"{name} has shape {shape}, expected ({side}, {side})")

    def generators(self) -> list[np.ndarray]:
        """All non-identity generators, A-side first."""
        return list(self.a_list) + list(self.b_list)

    def monomials(self) -> np.ndarray:
        """The (KM, N, N) stack of T_{(u,v)} = GB_u · GA_v at row u * M + v.

        One broadcast product of the two families, each closed by its identity.
        """
        n = self.dims.n
        eye = np.eye(n, dtype=complex)
        ga = np.stack([*self.a_list, eye])
        gb = np.stack([*self.b_list, eye])
        return (gb[:, None] @ ga[None]).reshape(-1, n, n)

    def t_matrix(self) -> np.ndarray:
        """The N x (KMN) block row [T_0 ... T_{KM-1}] of the monomials side by side."""
        return np.hstack(self.monomials())


@dataclass(frozen=True)
class ExtractionDiagnostics:
    """Ranks, bounds and a defect recorded while extracting a canonical form.

    The residual fields are upper bounds, exact in exact arithmetic, on the
    residuals of the filtered state rho_f = filter_corner(state, form.f)
    against the returned form (see extract_canonical):
    reconstruction_residual on ||rho_f - T†T||_F / ||rho_f||_F, delta_norm
    on the Frobenius norm of that residual's diagonal block at grid position
    (K-2, M-2), and kernel_residual_max on |rho_f psi| / |psi| over the
    kernel vectors psi = |slot>|e> - |K-1, M-1> G|e> of the generators.
    They grow with F's condition and can pass 1e-8 from f_condition about
    3e5, whatever the dense residuals read.  commutator_max is computed:
    the largest normality or commutation defect of the family.  f_condition
    is F's condition number, (sigma_max / sigma_min)² of L_c.
    """

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
    factor: np.ndarray | None = None,
) -> ProductWitness | None:
    """Search for a product pair whose sandwich block on C has full rank N.

    mode "corner" scans the K*M computational-basis pairs; "search" adds
    `samples` Haar-like random product pairs on top of those; "explicit" tests
    exactly the supplied (e_a, f_b), which must be unit vectors.  A candidate
    has rank N when every singular value of its Hermitized sandwich exceeds
    n * eps * sigma_max, the rank rule of numeric_rank.  Among the full-rank
    candidates the one with the largest smallest singular value wins (ties
    broken by scan order), which keeps the downstream filter as
    well-conditioned as the state allows.  Returns None when no candidate
    reaches rank N.

    One chunked contraction (linalg._sandwiches) computes the sandwiches of
    all candidates, and one batched SVD their singular values.  The random
    pairs come from one block of draws laid out so that candidates and choice
    are bit-identical to drawing and testing them one at a time.

    Given the d x N factor L of a PSD state, rho ~ LL† (ppt._admit builds
    it), each sandwich is B B† for the N x N B = sum_r conj(w_r) L_r over
    L's blocks and the product vector w = e_a (x) f_b: one (P, KM) @
    (KM, N²) product gives every B, and the squares of their singular values
    are ranked by the same rules, with no KMN x KMN work.  An indefinite state
    has no such factor, so it is scored on its dense sandwiches, and so is a
    state whose factor has a zero last column: its pivoting stopped early, at
    an eigenvalue within the PPT tolerance of zero or below, so no B B† can
    reach rank N while rho's own sandwiches still may.
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
    elif mode == "explicit":
        if e_a is None or f_b is None:
            raise ValueError("explicit mode needs both e_a and f_b")
        eas, fbs = (v[None] for v in _unit_pair(state.dims, e_a, f_b))
    else:
        raise ValueError(f"unknown witness mode {mode!r}")

    w = (eas[:, :, None] * fbs[:, None, :]).reshape(-1, k * m)  # the product vectors
    if factor is None or not factor[:, -1].any():
        # Singular values, not eigenvalues: an indefinite input state can give an
        # indefinite sandwich, whose rank and conditioning are set by |lambda|.
        sv = np.linalg.svd(hermitize(_sandwiches(state, w)), compute_uv=False)
    else:
        b = (w.conj() @ factor.reshape(k * m, n * n)).reshape(-1, n, n)
        sv = np.linalg.svd(b, compute_uv=False) ** 2
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


def _require_full_corner(ev: np.ndarray, n: int) -> None:
    """RankMismatch unless F's eigenvalues ev give it rank N by _rank_above_cutoff."""
    rank = _rank_above_cutoff(ev, n)
    if rank != n:
        raise RankMismatch(f"corner block rank {rank} != N = {n}; rotate a full-rank witness first")


def filter_corner(state: TripartiteState, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the corner filter: (I (x) I (x) F^{-1/2}) rho (I (x) I (x) F^{-1/2}).

    Not on the library's own path, where _extract decides F on the factor's
    corner block by the same _require_full_corner.  Here one eigh of the
    Hermitian F gives its rank on the signed spectrum, so a negative
    eigenvalue counts as missing rank: F must be positive definite by the
    package's rank rule, or RankMismatch is raised.  The same eigenpairs
    give s = F^{-1/2}.  The lift is block diagonal, so it is applied as
    s @ X @ s to each N x N block X of the state: O(N d²) work for d = KMN,
    and the KMN x KMN lift is never formed.

    Returns (rho_f, w): the filtered state and the ascending eigenvalues of F.
    """
    k, m, n = state.dims.as_tuple()
    f = as_complex_matrix(f, "corner block")
    if f.shape != (n, n):
        raise DimensionMismatch(f"corner block has shape {f.shape}, expected ({n}, {n})")
    w, v = np.linalg.eigh(f)
    _require_full_corner(w, n)
    s = hermitize(v @ np.diag(1.0 / np.sqrt(w)) @ dagger(v))
    return hermitize(_conjugate_blocks(state.rho, k * m, n, s, s)), w


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


def _gram_gap(l: np.ndarray, delta: np.ndarray) -> float:
    """||LL† - (L - Δ)(L - Δ)†||_F for two stacks of N x N row blocks, with no d x d product.

    The difference is AB† for A = [L, Δ] and B = [Δ, L - Δ], and
    ||AB†||_F² = tr(A†A B†B), a trace of two 2N x 2N Gram matrices.  Each of
    its four block products pairs two Gram blocks that hold Δ once each, so
    a small Δ is not lost in the rounding of L†L.
    """
    n = l.shape[-1]
    a = np.concatenate([l, delta], axis=-1).reshape(-1, 2 * n)
    b = np.concatenate([delta, l - delta], axis=-1).reshape(-1, 2 * n)
    return float(np.sqrt(max(0.0, np.vdot(dagger(b) @ b, dagger(a) @ a).real)))


def _extract(
    factor: np.ndarray, dims: TripartiteDims, residual: float, norm: float, tol: float
) -> tuple[CanonicalForm, np.ndarray, np.ndarray, np.ndarray]:
    """The canonical form read off a d x N factor L of rho, in the frame of W.

    residual bounds ||rho - LL†||_F and norm is ||rho||_F, both from the
    admission.  Returns the form in the frame of W = F^{-1/2} L_c (see the
    module docstring), that is of (I (x) I (x) W†) rho (I (x) I (x) W), whose
    corner block is W† F W = L_c† L_c; the corner block L_c of L, which maps
    that frame's sqrt(L_c† L_c) |f> to the state's F^{1/2} W |f>; and the
    stacks T and T - T_m, with T_m below.  O(KM N³): nothing of size d x d.

    F is decided here on the library path: its eigenvalues are the squares
    of L_c's singular values, and _require_full_corner refuses it with
    RankMismatch unless they give it rank N.  One solve gives every
    T_r = (L_c^{-1} L_r)†, so that L_r = L_c T_r†.  The generators are T at
    their slots, and the monomial row T_m holds GB_u GA_v at every slot
    (u, v), with GA_{M-1} = GB_{K-1} = I.  The ensemble the generators give
    rebuilds R = L_m L_m† for the blocks L_m,r = L_c T_m,r†, so with the
    monomial defect Δ = L - L_m,

        ||rho - R||_F <= residual + ||LL† - L_m L_m†||_F,

    the last term computed exactly by _gram_gap.  StructureViolation is
    raised when that bound exceeds tol * norm, or when the family's
    normality and commutation defect exceeds tol * s², as
    simultaneous_diagonalize requires.
    """
    k, m, n = dims.as_tuple()
    km = k * m
    blocks = factor.reshape(km, n, n)
    corner = blocks[-1]
    _require_full_corner(np.linalg.svd(corner, compute_uv=False) ** 2, n)
    # The blocks side by side, [L_0 .. L_{KM-1}], are solved against L_c at once.
    y = np.linalg.solve(corner, blocks.transpose(1, 0, 2).reshape(n, km * n))
    t = dagger(y.reshape(n, km, n).transpose(1, 0, 2))
    grid = t.reshape(k, m, n, n)
    # GA_v and GB_u, copied out of the strided stack so that each generator is
    # C-contiguous and every later product of it takes the same matmul path.
    families = (tuple(grid[-1, :-1].copy()), tuple(grid[:-1, -1].copy()))
    local = (np.eye(k, dtype=complex), np.eye(m, dtype=complex))
    form = CanonicalForm(dims, *families, dagger(corner) @ corner, *local)
    t_m = form.monomials()
    gens = form.generators()
    bound = (residual + _gram_gap(blocks, blocks - corner @ dagger(t_m))) / norm
    comm = _commutator_max(gens)
    if bound > tol or comm > tol * _family_scale(gens) ** 2:
        raise StructureViolation(
            f"factor is not in product-monomial form at tol {tol:.1e} "
            f"(reconstruction bound {bound:.3e}, commutator max {comm:.3e})"
        )
    return form, corner, t, t - t_m  # the defect is zero at the generator slots


def extract_canonical(
    state: TripartiteState, tol: float = CERT_TOL
) -> tuple[CanonicalForm, ExtractionDiagnostics]:
    """Extract the canonical form of a rank-N PPT state with invertible corner.

    Checks, in order: global rank == N (RankMismatch), PPT across all masks
    (NotPptError), both from a Cholesky certificate per mask and one
    Hermitian eigendecomposition of the state (see ppt._admit), then, on the
    admission's factor L, a corner block F = L_c L_c† of rank N
    (RankMismatch) and the product-monomial structure (StructureViolation),
    both as _extract decides them.  The form is returned in the frame of the
    state: F = L_c L_c†, and each generator G = W G' W† for the extraction's
    G' and the unitary W = F^{-1/2} L_c, the polar factor U V† of
    L_c = U S V†.  Returns the form together with diagnostics.

    The diagnostics bound the residuals of rho_f = filter_corner(state, f)
    against the form; each bound holds in any frame, as W is unitary.  There
    rho - LL† costs at most e = residual / sigma_min(L_c)², and
    F^{-1/2} L L† F^{-1/2} is T†T, so with the defect D = T - T_m,
    ||rho_f - T_m†T_m||_F <= e + ||T†T - T_m†T_m||_F, the last term by
    _gram_gap, and ||rho_f||_F >= ||T T†||_F - e.  A single block of the
    residual is bounded by (2 ||T_r||_F + ||D_r||_F) ||D_r||_F + e, and, as
    T_c - I is all that is left of the kernel vectors' images, their
    residual by e + ||T||_F ||D_c||_F.  The certified residual is about
    1e-15 for a rank-N state, the rounding term of its certificate, so e
    grows with F's condition: on generated (3,3,4) states, delta_norm and
    kernel_residual_max read 1.2e-8 at f_condition 3.2e5, and all three
    bounds read 3e-8 to 8e-7 at 2.2e7, where the dense residuals are about
    2e-9.
    """
    admission = _admit(state)
    if not admission.rank_tested:
        _require_rank(state)
    form, corner, t, defect = _extract(
        admission.factor, state.dims, admission.residual, admission.norm, tol
    )
    k, m, n = state.dims.as_tuple()
    u, sv, vh = np.linalg.svd(corner)
    w = u @ vh
    gens = [w @ g @ dagger(w) for g in form.generators()]
    f = hermitize(corner @ dagger(corner))
    form = replace(form, a_list=tuple(gens[: m - 1]), b_list=tuple(gens[m - 1 :]), f=f)

    e = admission.residual / sv[-1] ** 2
    d_norms = np.linalg.norm(defect, axis=(1, 2))
    gram = float(np.linalg.norm((t @ dagger(t)).sum(axis=0)))  # ||T T†||_F = ||T†T||_F
    r = k * m - m - 2  # the slot (K-2, M-2)
    recon = (_gram_gap(dagger(t), dagger(defect)) + e) / (gram - e) if gram > e else np.inf
    delta = (2 * np.linalg.norm(t[r]) + d_norms[r]) * d_norms[r] + e
    kernel = e + np.linalg.norm(t) * d_norms[-1]
    condition = float((sv[0] / sv[-1]) ** 2)
    comm = _commutator_max(gens)
    return form, ExtractionDiagnostics(n, n, float(recon), comm, float(delta), float(kernel), condition)
