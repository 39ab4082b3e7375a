"""Positivity and partial-transpose verdicts.

The full report covers the identity mask plus all seven non-trivial transpose
masks, but only four matrices are examined: transposing a subsystem set and
transposing its complement give matrices that are transposes of each other,
hence share a spectrum.  The verdict for {B, C} is therefore read off the
{A} mask, and so on.  The report takes the four spectra; the admission gate
of the canonical form (_admit) needs only yes/no for all four.  A separable
state of rank N and each of its partial transposes have rank at most N, so
_psd_verdict settles each by N steps of pivoted Cholesky, O((KMN)² N), where
that provably gives eigvalsh's verdict.  The gate decomposes the state itself
only on the way to a possible refusal, and tests the rank on that one
spectrum; a mask the certificate cannot decide is settled by its own
eigvalsh, after the rank test unless rho is proved PSD.

Every matrix examined here is exactly Hermitian without a further projection:
TripartiteState stores the Hermitian part of its input, and a partial
transpose only permutes entries, in a way that commutes with the conjugate
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPptError, RankMismatch
from .linalg import (
    ALL_MASKS,
    PPT_TOL,
    SubsystemMask,
    TripartiteState,
    _rank_above_cutoff,
    partial_transpose,
)


@dataclass(frozen=True)
class MaskResult:
    """Verdict for one transpose mask."""

    mask: SubsystemMask
    min_eigenvalue: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "mask": self.mask.label,
            "min_eigenvalue": self.min_eigenvalue,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class PptReport:
    """Minimum eigenvalue and pass flag for every transpose mask, plus the overall verdict.

    overall_ppt requires positivity of the state itself and of the three
    single-subsystem masks; the remaining masks are determined by those and
    are reported for completeness.
    """

    entries: tuple[MaskResult, ...]
    overall_ppt: bool
    tol_used: float

    def entry(self, mask: SubsystemMask) -> MaskResult:
        return {e.mask: e for e in self.entries}[mask]

    def to_dict(self) -> dict:
        return {
            "overall_ppt": self.overall_ppt,
            "tol_used": self.tol_used,
            "masks": [e.to_dict() for e in self.entries],
        }


def ppt_report(state: TripartiteState, tol: float | None = None) -> PptReport:
    """Evaluate every transpose mask of the state.

    tol defaults to PPT_TOL * trace(rho); each mask passes iff its minimum
    eigenvalue is >= -tol.  Eigendecompositions are run for the identity and
    the three single-subsystem masks only — each remaining mask shares its
    spectrum with the complement that was already computed.  The verdict is
    on state.rho, which the state type keeps exactly Hermitian, so the
    spectra are those of (input + input†)/2 and its partial transposes.
    """
    if tol is None:
        tol = _default_tol(state)
    spectra = [np.linalg.eigvalsh(partial_transpose(state, m)) for m in ALL_MASKS[:4]]
    entries = tuple(
        MaskResult(mask, lo, lo >= -tol)
        for mask, lo in zip(ALL_MASKS, _by_mask([float(w[0]) for w in spectra]))
    )
    overall = all(e.passed for e in entries[:4])
    return PptReport(entries, overall, float(tol))


def _default_tol(state: TripartiteState) -> float:
    """The PPT tolerance when none is given: PPT_TOL * trace(rho)."""
    return PPT_TOL * float(state.rho.trace().real)


def _by_mask(values: list) -> list:
    """Spread one value per mask in ALL_MASKS[:4] over all eight masks.

    Each remaining mask takes the value of its complement, whose partial
    transpose is the transpose of its own.
    """
    of = dict(zip(ALL_MASKS[:4], values))
    return [of[m] if m in of else of[m.complement()] for m in ALL_MASKS]


def _require_rank(state: TripartiteState) -> np.ndarray:
    """Raise RankMismatch unless the state's numeric rank is N; else return rho's spectrum.

    The rank is read off the state's Hermitian spectrum with numeric_rank's
    rule, since the singular values of a Hermitian matrix are |lambda|; no
    SVD runs.  Raised from None: when it replaces a later refusal, that
    refusal is not chained to it.
    """
    spectrum = np.linalg.eigvalsh(state.rho)
    n = state.dims.n
    state_rank = _rank_above_cutoff(np.abs(spectrum), state.side)
    if state_rank != n:
        raise RankMismatch(
            f"state rank {state_rank} != N = {n}; canonical form does not apply"
        ) from None
    return spectrum


def _admit(state: TripartiteState) -> bool:
    """The PPT gate of the construction; returns whether it tested the rank.

    Masks A, B and C are settled at ppt_report's default tolerance,
    PPT_TOL * trace(rho), by _psd_verdict's N-pivot certificate, then mask
    "none" by the same certificate on rho itself.  When all four are
    certified PSD, no eigendecomposition of a KMN x KMN matrix runs, the
    rank is not tested, and False is returned: a caller that goes on to
    certify an N-term ensemble has shown that rho lies within its tol of
    rank N, and one that meets a refusal first tests the rank with
    _require_rank.  Otherwise rho is decomposed once, at the first refuted
    mask or when rho is not proved PSD, and that spectrum gives the rank
    and mask "none".  RankMismatch, unless the rank is N, outranks every
    mask verdict, so it is raised before any further mask is examined.  A
    mask the certificate leaves undecided is settled by its own eigvalsh
    (before the rank test only when rho is proved PSD), so each verdict is
    ppt_report's, and NotPptError names every failing mask in ppt_report's
    order.  A state that passes both returns True.  Both verdicts are
    invariant under local unitaries, so they may be taken before or after
    a rotation to the corner.
    """
    tol = _default_tol(state)
    norm_f = float(np.linalg.norm(state.rho))
    n = state.dims.n
    passed = []
    spectrum = None
    for mask in ALL_MASKS[1:4]:
        # Each partial transpose is a temporary of its own verdict, so one KMN x
        # KMN copy is alive at a time and none is held by a refusal's traceback.
        # With all three alive at once, glibc can hand the freed memory back to
        # the OS after every call and fault it in again on the next: about 700
        # minor page faults per NotPptError refusal at (4,4,8).
        passed.append(_psd_verdict(partial_transpose(state, mask), tol, norm_f, n))
        # A refuted mask needs rho's spectrum for the rank test, and
        # RankMismatch outranks every mask verdict, so the rank is tested at
        # once: a state of another rank is refused before the next mask.
        if passed[-1] is False and spectrum is None:
            spectrum = _require_rank(state)

    def settle_undecided() -> None:
        # Each mask the certificate left undecided (None) is rebuilt, an O(d²)
        # gather, and decided by its own eigvalsh, as ppt_report decides it.
        for i, mask in enumerate(ALL_MASKS[1:4]):
            if passed[i] is None:
                passed[i] = bool(np.linalg.eigvalsh(partial_transpose(state, mask))[0] >= -tol)

    if spectrum is None:
        # No mask is refuted: rho's own certificate may admit the state with
        # no spectrum.  One that fails or cannot decide (None) leaves the
        # verdict on rho to the spectrum, which tests the rank before a mask
        # still undecided is decomposed.
        if _psd_verdict(state.rho, tol, norm_f, n):
            settle_undecided()
            if all(passed):
                return False
        spectrum = _require_rank(state)
    settle_undecided()
    passed.insert(0, float(spectrum[0]) >= -tol)
    failing = [mask.label for mask, ok in zip(ALL_MASKS, _by_mask(passed)) if not ok]
    if failing:
        raise NotPptError(f"state is not PPT (failing masks: {', '.join(failing)})")
    return True


def _psd_verdict(x: np.ndarray, tol: float, norm_f: float, n: int) -> bool | None:
    """eigvalsh(x)[0] >= -tol for an exactly Hermitian d x d x, or None where undecided.

    norm_f is ||x||_F; for a partial transpose x = rho^Gamma it equals
    ||rho||_F, since transposing subsystems only permutes entries.  n = N
    is the rank a separable state and each of its partial transposes have at
    most: each is a sum of N product projectors.  So n steps of diagonally
    pivoted Cholesky (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., §10.3) give a d x k factor L, k <= n, that captures x, and
    S = x - LL† is what is left.  The steps stop early at a pivot that
    cannot be told from zero.  The cost is O(d² n), one GEMM.

    Why the verdict is eigvalsh's.  Let u = eps, twice the real unit
    roundoff, which covers complex arithmetic (Higham §3.6), and
    gamma_m = m u / (1 - m u).  eigvalsh is assumed backward stable, as
    ppt_report's verdict already is: its smallest eigenvalue of a q x q
    Hermitian y is within beta(y) = c / (1 - c) * ||y||_F of lambda_min(y),
    with c = q * gamma_{q+1}.  Write beta = beta(x).

    - Success.  LL† is exactly PSD for the computed L, whatever its
      rounding, so by Weyl's inequality
      lambda_min(x) >= -||x - LL†||_2 >= -||x - LL†||_F.  The computed S
      is fl(x - fl(LL†)): each entry of fl(LL†) is a length-k inner product,
      within gamma_{k+1} (|L||L†|)_ij of the exact one, and the subtraction
      adds at most u |S_ij|.  So ||x - LL†||_F <= (1 + u) ||S||_F +
      gamma_{k+1} ||L||_F², by submultiplicativity of the Frobenius norm.
      Each computed norm sums at most 2 d² squares and takes a root, within
      a relative gamma_{d²+3} of its value, so dividing by (1 - gamma_{d²+3})²
      covers both norms and the few roundings of the bound itself.  If that
      bound plus beta is <= tol, eigvalsh could not read below -tol: True.
      The bound has no d² factor: about 1e-15 for a rank-N state, against
      tol = 1e-9.
    - Failure.  Let Q be the pivots, the indices of the n most negative
      entries of diag(S) off the pivots, and for each of those the index of
      the largest |S_ij| in its row, which finds a negative 2 x 2 minor that
      the diagonal does not show (a zero diagonal beside a nonzero entry).
      Let mu = eigvalsh(x[Q, Q])[0].  x[Q, Q] is a principal submatrix,
      copied without rounding, so Cauchy interlacing gives
      lambda_min(x) <= lambda_min(x[Q, Q]) <= mu + beta(x[Q, Q]) for any Q.
      If that plus beta is < -tol, eigvalsh(x) could not read -tol or above:
      False.
    - Otherwise lambda_min(x) lies within those bounds of -tol, or x has
      rank above n, and the caller's eigvalsh(x) decides, exactly as
      ppt_report does.  beta grows as d² ||x||_F, so for very large d or a
      large ||rho||_F the success side cannot decide.
    """
    d = len(x)
    eps = np.finfo(float).eps

    def gamma(m: int) -> float:
        return m * eps / (1 - m * eps)

    def beta(y: np.ndarray, y_norm: float) -> float:
        c = len(y) * gamma(len(y) + 1)
        return c / (1 - c) * y_norm

    residual = x.diagonal().real.copy()
    factor = np.zeros((d, n), dtype=complex)
    pivots: list[int] = []
    for j in range(n):
        p = int(np.argmax(residual))
        # A residual within the rounding of x[p, p] - sum_i |L[p, i]|² cannot be
        # told from zero, and dividing by its root would fill L with noise.
        if not residual[p] > 2 * gamma(j + 1) * x[p, p].real:
            break
        column = (x[p].conj() - factor[:, :j] @ factor[p, :j].conj()) / np.sqrt(residual[p])
        factor[:, j] = column
        residual -= column.real**2 + column.imag**2
        pivots.append(p)
    factor = factor[:, : len(pivots)]
    s = factor @ factor.conj().T
    np.subtract(x, s, out=s)
    bound = (
        (1 + eps) * np.linalg.norm(s) + gamma(len(pivots) + 1) * np.linalg.norm(factor) ** 2
    ) / (1 - gamma(d * d + 3)) ** 2
    beta_x = beta(x, norm_f)
    if bound + beta_x <= tol:
        return True
    diagonal = s.diagonal().real.copy()
    diagonal[pivots] = np.inf
    negative = np.argsort(diagonal)[:n]
    partners = np.argmax(np.abs(s[negative]), axis=1)
    q = np.unique(np.concatenate([np.array(pivots, dtype=int), negative, partners]))
    sub = x[np.ix_(q, q)]
    if np.linalg.eigvalsh(sub)[0] + beta(sub, np.linalg.norm(sub)) + beta_x < -tol:
        return False
    return None
