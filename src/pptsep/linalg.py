"""Dense linear algebra over a tripartite tensor-product structure.

A state on C^K (x) C^M (x) C^N is stored as a single KMN x KMN complex matrix
in the product basis |i_A, i_B, i_C> with flat index

    idx = (i_A * M + i_B) * N + i_C,

i.e. the matrix is a KM x KM grid of N x N blocks, block (r, c) sitting at
rows r*N..(r+1)*N and columns c*N..(c+1)*N.  Everything downstream (partial
transposes, corner blocks, sandwich compressions) is phrased against this one
convention, so it lives here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NormalizationError,
    NotHermitianError,
    NotPsdError,
    SingularError,
)

# The tolerance policy.  Every threshold of the package is named here, once,
# with the scale it is relative to; no other module writes a tolerance literal.
# Rank decisions use no named bound: _rank_above_cutoff derives its cutoff,
# order * eps * sigma_max, from the matrix itself.
#
# Hermitian defect ||X - X†||_F of a state, relative to max(1, ||X||_F): a
# few roundings per entry, far below any physical signal.
HERM_TOL = 1e-10
# |trace(rho) - 1| of a state and |sum p - 1| of an ensemble, absolute: the
# generators normalize exactly and load_state re-normalizes on request.
TRACE_TOL = 1e-10
# | ||v|| - 1 | of a witness or ensemble vector, absolute: vectors are divided
# by their own norm, so the gap is a few ulps.
VEC_TOL = 1e-10
# Slack on the smallest eigenvalue of a PPT verdict, relative to the trace:
# well above eigvalsh's backward error, well below any negativity that
# certifies entanglement.
PPT_TOL = 1e-9
# Negative eigenvalues the PSD roots clip to zero, relative to
# max(1, lambda_max); anything more negative is a NotPsdError.
PSD_CLIP = 1e-10
# Default certification tolerance: the relative reconstruction residuals of
# extraction and ensemble, and, scaled by the generator family
# (_family_scale), the commutator and joint-diagonalization bounds.
CERT_TOL = 1e-8
# Smallest |trace| load_state will normalize away, absolute: below it the
# division would amplify rounding into the whole matrix.
TRACE_FLOOR = 1e-12


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def hermitize(x: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (X + X†)/2, of a matrix or of each matrix of a stack."""
    return (x + dagger(x)) / 2


def _family_scale(gens: list[np.ndarray]) -> float:
    """s = max(1, max ||g||_F) over a generator family.

    The commutator bound is tol * s² (a product of two generators) and the
    joint-diagonalization bound tol * s (one generator in a rotated basis).
    """
    return max(1.0, max(float(np.linalg.norm(g)) for g in gens))


def as_complex_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TripartiteDims:
    """Local dimensions (K, M, N) of the three subsystems A, B, C."""

    k: int
    m: int
    n: int

    def __post_init__(self):
        if self.k < 2 or self.m < 2:
            raise DimensionMismatch(f"subsystems A and B need dimension >= 2, got {self}")
        if self.n < 1:
            raise DimensionMismatch(f"subsystem C needs dimension >= 1, got {self}")

    @property
    def total(self) -> int:
        return self.k * self.m * self.n

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.k, self.m, self.n)


@dataclass(frozen=True)
class SubsystemMask:
    """Selects which of the subsystems A, B, C get transposed."""

    transpose_a: bool = False
    transpose_b: bool = False
    transpose_c: bool = False

    @property
    def label(self) -> str:
        s = ("A" if self.transpose_a else "") + ("B" if self.transpose_b else "") + (
            "C" if self.transpose_c else ""
        )
        return s or "none"

    def complement(self) -> "SubsystemMask":
        return SubsystemMask(not self.transpose_a, not self.transpose_b, not self.transpose_c)


MASK_NONE = SubsystemMask()
MASK_A = SubsystemMask(transpose_a=True)
MASK_B = SubsystemMask(transpose_b=True)
MASK_C = SubsystemMask(transpose_c=True)

#: All eight masks in canonical report order.
ALL_MASKS = (
    MASK_NONE,
    MASK_A,
    MASK_B,
    MASK_C,
    SubsystemMask(True, True, False),
    SubsystemMask(True, False, True),
    SubsystemMask(False, True, True),
    SubsystemMask(True, True, True),
)


@dataclass(frozen=True)
class TripartiteState:
    """A Hermitian, unit-trace KMN x KMN matrix tied to its tripartite dimensions.

    The input must be finite, of shape KMN x KMN, Hermitian within HERM_TOL
    (relative) and of trace one within TRACE_TOL.  The type then stores its
    own read-only copy of the Hermitian part, hermitize(input), so
    state.rho == state.rho.conj().T holds exactly, entry for entry, and a
    later change to the caller's array does not reach the state.  Every
    verdict of the package is therefore a verdict on (rho + rho†)/2, and no
    consumer hermitizes rho again.

    Positivity is *not* part of the type: PPT verdicts are a computation, and
    the literal variant of the misprinted product family is deliberately
    representable (it is Hermitian with trace one but indefinite).
    """

    dims: TripartiteDims
    rho: np.ndarray

    def __post_init__(self):
        arr = as_complex_matrix(self.rho, "rho")
        d = self.dims.total
        if arr.shape != (d, d):
            raise DimensionMismatch(
                f"rho has shape {arr.shape}, dims {self.dims.as_tuple()} need ({d}, {d})"
            )
        scale = max(1.0, float(np.linalg.norm(arr)))
        if np.linalg.norm(arr - dagger(arr)) > HERM_TOL * scale:
            raise NotHermitianError("rho is not Hermitian within tolerance")
        if abs(arr.trace() - 1.0) > TRACE_TOL:
            raise NormalizationError(f"trace(rho) = {arr.trace():.12g}, expected 1")
        rho = hermitize(arr)
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def side(self) -> int:
        return self.dims.total


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product with complex coercion."""
    return np.kron(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))


def partial_transpose(state: TripartiteState, mask: SubsystemMask) -> np.ndarray:
    """Transpose the masked subsystems of the state.

    Implemented as a pure index permutation (reshape + axis swap), so it does
    no arithmetic at all: applying the same mask twice returns the original
    matrix bit for bit, and the trace and Hermiticity are preserved exactly.
    """
    return _transpose_subsystems(state.rho, state.dims, mask)


def _transpose_subsystems(rho: np.ndarray, dims: TripartiteDims, mask: SubsystemMask) -> np.ndarray:
    """partial_transpose on a bare KMN x KMN matrix."""
    k, m, n = dims.as_tuple()
    t = rho.reshape(k, m, n, k, m, n)
    axes = list(range(6))
    if mask.transpose_a:
        axes[0], axes[3] = axes[3], axes[0]
    if mask.transpose_b:
        axes[1], axes[4] = axes[4], axes[1]
    if mask.transpose_c:
        axes[2], axes[5] = axes[5], axes[2]
    side = dims.total
    return np.ascontiguousarray(t.transpose(axes)).reshape(side, side)


def block(state: TripartiteState, row: int, col: int) -> np.ndarray:
    """The N x N block of the KM x KM block grid at (row, col)."""
    km = state.dims.k * state.dims.m
    if not (0 <= row < km and 0 <= col < km):
        raise IndexError(f"block ({row}, {col}) out of range for a {km} x {km} grid")
    n = state.dims.n
    return state.rho[row * n : (row + 1) * n, col * n : (col + 1) * n].copy()


def sandwich_ab(state: TripartiteState, e_a: np.ndarray, f_b: np.ndarray) -> np.ndarray:
    """Compress the A and B slots against unit vectors: <e_a, f_b| rho |e_a, f_b>.

    Returns the resulting N x N matrix on subsystem C.  Both vectors must be
    normalized; a PSD input state yields a PSD sandwich.
    """
    k, m, _ = state.dims.as_tuple()
    e_a = np.asarray(e_a, dtype=complex).reshape(-1)
    f_b = np.asarray(f_b, dtype=complex).reshape(-1)
    if e_a.shape != (k,) or f_b.shape != (m,):
        raise DimensionMismatch(
            f"witness vectors need shapes ({k},) and ({m},), got {e_a.shape} and {f_b.shape}"
        )
    if abs(np.linalg.norm(e_a) - 1.0) > VEC_TOL or abs(np.linalg.norm(f_b) - 1.0) > VEC_TOL:
        raise NormalizationError("witness vectors must be unit vectors")
    return _sandwiches(state, e_a[None], f_b[None])[0]


# Transient memory of _sandwiches: candidates are contracted in chunks whose
# (chunk, N, KM, N) intermediate stays within this many bytes, so the witness
# search's peak does not grow with its sample count.
SANDWICH_CHUNK_BYTES = 1 << 20


def _sandwiches(state: TripartiteState, ea_stack: np.ndarray, fb_stack: np.ndarray) -> np.ndarray:
    """The (P, N, N) stack of sandwiches <e_a f_b| rho |e_a f_b>, one per row pair.

    The rows of ea_stack (P, K) and fb_stack (P, M) are taken as they are, unit
    vectors by the caller's construction.  With W the (P, KM) stack of product
    vectors e_a (x) f_b, one GEMM conj(W) @ rho.reshape(KM, -1) sums the
    row-side (A, B) index and one batched product with W the column-side one.
    Candidates run in chunks of at most SANDWICH_CHUNK_BYTES of GEMM output,
    or one at a time where a single candidate's output is larger.
    """
    k, m, n = state.dims.as_tuple()
    km = k * m
    w = (ea_stack[:, :, None] * fb_stack[:, None, :]).reshape(-1, km)
    flat = state.rho.reshape(km, -1)
    chunk = max(1, SANDWICH_CHUNK_BYTES // (flat.itemsize * n * km * n))
    out = np.empty((len(w), n, n), dtype=complex)
    for start in range(0, len(w), chunk):
        wc = w[start : start + chunk]
        # One expression, so each chunk's GEMM result is freed before the next.
        out[start : start + chunk] = (
            wc[:, None, None, :] @ (wc.conj() @ flat).reshape(-1, n, km, n)
        )[:, :, 0, :]
    return out


def _conjugate_blocks(rho: np.ndarray, km: int, n: int, left, right) -> np.ndarray:
    """left @ X @ right for every N x N block X of the KM x KM block grid of rho."""
    blocks = rho.reshape(km, n, km, n).transpose(0, 2, 1, 3)
    return (left @ blocks @ right).transpose(0, 2, 1, 3).reshape(km * n, km * n)


def _permutation_of(u: np.ndarray) -> np.ndarray | None:
    """perm with u[i, perm[i]] == 1 if u is exactly a permutation matrix, else None."""
    ones = u == 1
    if not np.all(ones | (u == 0)):
        return None
    if not (np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)):
        return None
    return np.argmax(ones, axis=1)


def conjugate_local(
    state: TripartiteState,
    u_a: np.ndarray | None = None,
    u_b: np.ndarray | None = None,
    u_c: np.ndarray | None = None,
) -> TripartiteState:
    """Apply (U_A ⊗ U_B ⊗ U_C) rho (·)†, identity for any factor left as None.

    The KMN x KMN operator is never formed.  U_A ⊗ U_B acts as one KM x KM
    product on the row (A, B) index of the (KM, N, KM, N) view of rho, and
    again on the conjugate transpose for the column side; U_C acts as a batched
    N x N conjugation of every block.  That is O(KM d²) + O(N d²) work for
    d = KMN, against O(d³) for the dense product; a factor left as None
    costs no product at all.  When U_A ⊗ U_B is exactly a permutation matrix
    (as for every computational-basis witness), it moves whole blocks, so it
    is applied as one row and column gather: O(d²) and no arithmetic.  When
    that permutation is the identity and U_C is None, the input state itself
    is returned, as the gather and the constructor would reproduce it bit
    for bit.  The GEMM products leave a rounding-size anti-Hermitian part;
    the returned state is built by the validating constructor, which keeps
    the Hermitian part only.
    """
    k, m, n = state.dims.as_tuple()
    km, d = k * m, state.side
    rho = state.rho
    if u_a is not None or u_b is not None:
        u_a = np.eye(k, dtype=complex) if u_a is None else u_a
        u_b = np.eye(m, dtype=complex) if u_b is None else u_b
        u_ab = kron(u_a, u_b)
        perm = _permutation_of(u_ab)
        if perm is not None:
            if u_c is None and np.array_equal(perm, np.arange(km)):
                return state
            idx = (perm[:, None] * n + np.arange(n)).ravel()
            rho = rho[np.ix_(idx, idx)]
        else:
            left = (u_ab @ rho.reshape(km, -1)).reshape(d, d)
            rho = dagger((u_ab @ dagger(left).reshape(km, -1)).reshape(d, d))
    if u_c is not None:
        u_c = np.asarray(u_c, dtype=complex)
        rho = _conjugate_blocks(rho, km, n, u_c, dagger(u_c))
    return TripartiteState(state.dims, rho)


def _rank_above_cutoff(sv: np.ndarray, order: int) -> int | np.ndarray:
    """Count of singular values above order * eps * sigma_max, along the last axis.

    The one rank rule of the package: numeric_rank applies it to an SVD, the
    witness search to a stack of sandwich spectra (one count per row), the
    admission gate of the canonical form to |eigenvalues| of a Hermitian
    matrix, which are its singular values, and psd_inv_sqrt to the clipped
    spectrum it inverts.
    """
    if sv.size == 0:
        return 0
    if sv.ndim == 1:
        # A scalar cutoff and count_nonzero's whole-array path.  The stacked
        # form below allocates a few more temporaries, and for one spectrum
        # that alone moved the NotPptError refusal loop at (4,4,8) into
        # glibc's trim-and-refault mode, about 1.4 ms slower per refusal.
        return int(np.count_nonzero(sv > order * np.finfo(float).eps * float(sv.max())))
    return np.count_nonzero(sv > sv.max(-1, keepdims=True) * (order * np.finfo(float).eps), axis=-1)


def numeric_rank(x: np.ndarray) -> int:
    """Number of singular values above max(shape) * eps * sigma_max.

    That is the usual dense rank cutoff, and the package's one rank rule.
    """
    x = as_complex_matrix(x, "rank input")
    return _rank_above_cutoff(np.linalg.svd(x, compute_uv=False), max(x.shape))


def _psd_eigh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared eigendecomposition with negative-eigenvalue policy for the psd_* helpers."""
    x = as_complex_matrix(x, "psd input")
    if x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {x.shape}")
    w, v = np.linalg.eigh(hermitize(x))
    tol = PSD_CLIP * max(1.0, float(w[-1]) if w.size else 0.0)
    if w.size and w[0] < -tol:
        raise NotPsdError(f"matrix has negative eigenvalue {w[0]:.3e} (tolerance {tol:.1e})")
    return np.clip(w, 0.0, None), v


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix; small negative eigenvalues are clipped to zero."""
    w, v = _psd_eigh(x)
    return hermitize(v @ np.diag(np.sqrt(w)) @ dagger(v))


def psd_inv_sqrt(x: np.ndarray) -> np.ndarray:
    """Hermitian inverse square root of a strictly positive matrix.

    Raises SingularError if any clipped eigenvalue falls at or below the dense
    rank cutoff, and NotPsdError for significant negative ones.
    """
    w, v = _psd_eigh(x)
    if w.size == 0 or _rank_above_cutoff(w, w.size) < w.size:
        raise SingularError("matrix is numerically singular; cannot form inverse square root")
    return hermitize(v @ np.diag(1.0 / np.sqrt(w)) @ dagger(v))
