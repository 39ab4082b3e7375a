"""Positivity and partial-transpose verdicts.

The full report covers the identity mask plus all seven non-trivial transpose
masks, but only four matrices are examined: transposing a subsystem set and
transposing its complement give matrices that are transposes of each other,
hence share a spectrum.  The verdict for {B, C} is therefore read off the
{A} mask, and so on.  The report takes the four spectra; the admission gate
of the canonical form (_admit) needs only yes/no for all four, and settles
each by shifted Cholesky certificates (_psd_verdict) where that is provably
exact.  It decomposes the state itself only when a certificate fails or
cannot decide, and then tests the rank on that one spectrum.

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


def _require_rank(state: TripartiteState, spectrum: np.ndarray | None = None) -> None:
    """Raise RankMismatch unless the state's numeric rank is N.

    The rank is read off the state's Hermitian spectrum (computed here when
    not given) with numeric_rank's rule, since the singular values of a
    Hermitian matrix are |lambda|; no SVD runs.  Raised from None: when it
    replaces a later refusal, that refusal is not chained to it.
    """
    if spectrum is None:
        spectrum = np.linalg.eigvalsh(state.rho)
    n = state.dims.n
    state_rank = _rank_above_cutoff(np.abs(spectrum), state.side)
    if state_rank != n:
        raise RankMismatch(
            f"state rank {state_rank} != N = {n}; canonical form does not apply"
        ) from None


def _admit(state: TripartiteState) -> bool:
    """The PPT gate of the construction; returns whether it tested the rank.

    Masks A, B and C are settled by _psd_verdict at ppt_report's default
    tolerance, PPT_TOL * trace(rho), then mask "none" by the same Cholesky
    bracket on rho itself, so the verdict is ppt_report's.  When all four are
    certified PSD, no eigendecomposition runs, the rank is not tested, and
    False is returned: a caller that goes on to certify an N-term ensemble
    has shown that rho lies within its tol of rank N, and one that meets a
    refusal first tests the rank with _require_rank.  Otherwise (a failed
    verdict, or a bracket on rho that cannot decide) rho is decomposed once,
    and that spectrum gives mask "none" and the rank: RankMismatch unless
    the rank is N, then NotPptError naming every failing mask in
    ppt_report's order.  A state that passes both returns True.  Both
    verdicts are invariant under local unitaries, so they may be taken
    before or after a rotation to the corner.
    """
    tol = _default_tol(state)
    norm_f = float(np.linalg.norm(state.rho))
    # Each partial transpose is a temporary of its own verdict, so one KMN x KMN
    # copy is alive at a time.  With all three alive at once, glibc can hand the
    # freed memory back to the OS after every call and fault it in again on the
    # next: about 700 minor page faults per NotPptError refusal at (4,4,8).
    passed = [
        _psd_verdict(partial_transpose(state, m), tol, norm_f) for m in ALL_MASKS[1:4]
    ]
    # A failed mask needs the spectrum for the rank test anyway, so rho's own
    # bracket runs only while every masked verdict has passed; a bracket that
    # fails or cannot decide (None) leaves the verdict to that spectrum.
    if all(passed) and _psd_certificate(state.rho, tol, norm_f):
        return False
    spectrum = np.linalg.eigvalsh(state.rho)
    passed.insert(0, float(spectrum[0]) >= -tol)
    failing = [mask.label for mask, ok in zip(ALL_MASKS, _by_mask(passed)) if not ok]
    _require_rank(state, spectrum)
    if failing:
        raise NotPptError(f"state is not PPT (failing masks: {', '.join(failing)})")
    return True


def _cholesky_succeeds(x: np.ndarray, shift: float) -> bool:
    """Whether LAPACK's Cholesky factorization of x + shift * I runs to completion."""
    y = x.copy()
    y.flat[:: len(y) + 1] += shift
    try:
        np.linalg.cholesky(y)
    except np.linalg.LinAlgError:
        return False
    return True


def _psd_verdict(x: np.ndarray, tol: float, norm_f: float) -> bool:
    """eigvalsh(x)[0] >= -tol for an exactly Hermitian x, decided by Cholesky where safe.

    norm_f is ||x||_F; for a partial transpose x = rho^Gamma it equals
    ||rho||_F, since transposing subsystems only permutes entries.

    Why the bracket decides the same as the eigenvalues.  Let
    c = d * gamma_{d+1}, with gamma_k = k u / (1 - k u) and u = eps, twice
    the real unit roundoff, which covers complex arithmetic (Higham, Accuracy
    and Stability of Numerical Algorithms, §3.6).  If Cholesky of
    A = x + s*I (d x d) runs to completion, the computed factor satisfies
    R†R = A + dA with ||dA||_2 <= c * ||R||_2² <= c / (1 - c) * ||A||_2
    (§10.1), so lambda_min(x) >= -s - beta, where
    beta = c / (1 - c) * (norm_f + 3 tol / 2) bounds that term for both
    shifts s below (||A||_2 <= ||x||_F + s).  Conversely, Cholesky runs to
    completion whenever lambda_min(A) > c / (1 - c) * max_i A_ii (§10.1,
    Demmel's theorem), so if it fails, lambda_min(x) <= -s + beta.  eigvalsh
    is backward stable: its smallest eigenvalue is within p(d) u ||x||_2
    <= beta of lambda_min(x).  So when 2 beta < tol / 2:

    - Cholesky of x + (tol/2) I succeeds: lambda_min(x) >= -tol/2 - beta, and
      eigvalsh could not read below -tol;
    - Cholesky of x + (3 tol/2) I fails: lambda_min(x) <= -3 tol/2 + beta, and
      eigvalsh could not read -tol or above;
    - otherwise lambda_min(x) lies within about tol/2 of -tol, and eigvalsh
      decides, exactly as ppt_report does.

    When 2 beta is not below tol / 2 (very large d, or a large ||rho||_F as
    for a strongly indefinite input) the bracket proves nothing and eigvalsh
    decides straight away.
    """
    verdict = _psd_certificate(x, tol, norm_f)
    if verdict is None:
        return bool(np.linalg.eigvalsh(x)[0] >= -tol)
    return verdict


def _psd_certificate(x: np.ndarray, tol: float, norm_f: float) -> bool | None:
    """The Cholesky bracket of _psd_verdict: its verdict, or None where it cannot decide."""
    d = len(x)
    eps = np.finfo(float).eps
    c = d * (d + 1) * eps / (1 - (d + 1) * eps)
    beta = c / (1 - c) * (norm_f + 1.5 * tol)
    if 2 * beta < tol / 2:
        if _cholesky_succeeds(x, tol / 2):
            return True
        if not _cholesky_succeeds(x, 1.5 * tol):
            return False
    return None
