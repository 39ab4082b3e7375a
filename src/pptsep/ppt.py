"""Positivity and partial-transpose verdicts.

The full report covers the identity mask plus all seven non-trivial transpose
masks, but only four matrices are examined: transposing a subsystem set and
transposing its complement give matrices that are transposes of each other,
hence share a spectrum.  The verdict for {B, C} is therefore read off the
{A} mask, and so on.  The report takes the four spectra; the admission gate
of the canonical form needs only yes/no for the masked ones, and settles
those by Cholesky certificates (_psd_verdict) where that is provably exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitianError
from .linalg import (
    ALL_MASKS,
    SubsystemMask,
    TripartiteState,
    _transpose_subsystems,
    as_complex_matrix,
    dagger,
    hermitize,
)


def is_psd(x: np.ndarray, tol: float | None = None, herm_tol: float = 1e-10) -> tuple[bool, float]:
    """Whether X is positive semidefinite, together with its minimum eigenvalue.

    X must be Hermitian within herm_tol (relative); the verdict is
    min eig >= -tol, with tol defaulting to 1e-9 * max(1, |trace X|).
    """
    x = as_complex_matrix(x, "is_psd input")
    scale = max(1.0, float(np.linalg.norm(x)))
    if np.linalg.norm(x - dagger(x)) > herm_tol * scale:
        raise NotHermitianError("is_psd input is not Hermitian within tolerance")
    if tol is None:
        tol = 1e-9 * max(1.0, abs(float(x.trace().real)))
    w = np.linalg.eigvalsh(hermitize(x))
    lo = float(w[0])
    return lo >= -tol, lo


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
    are reported for completeness.  spectrum holds the ascending eigenvalues
    of the unmasked state, so the rank can be read without a second
    decomposition; it is left out of to_dict() and of comparisons.
    """

    entries: tuple[MaskResult, ...]
    overall_ppt: bool
    tol_used: float
    spectrum: np.ndarray | None = field(default=None, compare=False, repr=False)

    def entry(self, mask: SubsystemMask) -> MaskResult:
        for e in self.entries:
            if e.mask == mask:
                return e
        raise KeyError(f"no entry for mask {mask.label}")

    def to_dict(self) -> dict:
        return {
            "overall_ppt": self.overall_ppt,
            "tol_used": self.tol_used,
            "masks": [e.to_dict() for e in self.entries],
        }


def ppt_report(state: TripartiteState, tol: float | None = None) -> PptReport:
    """Evaluate every transpose mask of the state.

    tol defaults to 1e-9 * trace(rho); each mask passes iff its minimum
    eigenvalue is >= -tol.  Eigendecompositions are run for the identity and
    the three single-subsystem masks only — each remaining mask shares its
    spectrum with the complement that was already computed.  rho is
    hermitized once, before the masks are applied.
    """
    if tol is None:
        tol = _default_tol(state)
    spectra = [np.linalg.eigvalsh(x) for x in _masked(state)]
    entries = tuple(
        MaskResult(mask, lo, lo >= -tol)
        for mask, lo in zip(ALL_MASKS, _by_mask([float(w[0]) for w in spectra]))
    )
    overall = all(e.passed for e in entries[:4])
    return PptReport(entries, overall, float(tol), spectrum=spectra[0])


def _default_tol(state: TripartiteState) -> float:
    """The PPT tolerance when none is given: 1e-9 * trace(rho)."""
    return 1e-9 * float(state.rho.trace().real)


def _masked(state: TripartiteState) -> list[np.ndarray]:
    """The Hermitian part of rho and its A, B and C partial transposes (ALL_MASKS[:4]).

    rho is hermitized once and then transposed: a partial transpose only
    permutes entries, in a way that commutes with the conjugate transpose, so
    this equals hermitizing each transposed matrix, bit for bit.
    """
    rho = hermitize(state.rho)
    return [rho] + [_transpose_subsystems(rho, state.dims, m) for m in ALL_MASKS[1:4]]


def _by_mask(values: list) -> list:
    """Spread one value per mask in ALL_MASKS[:4] over all eight masks.

    Each remaining mask takes the value of its complement, whose partial
    transpose is the transpose of its own.
    """
    of = dict(zip(ALL_MASKS[:4], values))
    return [of[m] if m in of else of[m.complement()] for m in ALL_MASKS]


def _ppt_admission(state: TripartiteState) -> tuple[np.ndarray, list[str]]:
    """The ascending spectrum of rho, and the masks ppt_report would fail, in its order.

    Only the unmasked state is decomposed; masks A, B and C are settled by
    _psd_verdict at ppt_report's default tolerance.  The matrices live only
    in this frame, so a caller that raises on the result does not keep them
    alive through its traceback.
    """
    masked = _masked(state)
    spectrum = np.linalg.eigvalsh(masked[0])
    tol = _default_tol(state)
    norm_f = float(np.linalg.norm(masked[0]))
    passed = [float(spectrum[0]) >= -tol] + [_psd_verdict(x, tol, norm_f) for x in masked[1:]]
    return spectrum, [mask.label for mask, ok in zip(ALL_MASKS, _by_mask(passed)) if not ok]


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
    d = len(x)
    eps = np.finfo(float).eps
    c = d * (d + 1) * eps / (1 - (d + 1) * eps)
    beta = c / (1 - c) * (norm_f + 1.5 * tol)
    if 2 * beta < tol / 2:
        if _cholesky_succeeds(x, tol / 2):
            return True
        if not _cholesky_succeeds(x, 1.5 * tol):
            return False
    return bool(np.linalg.eigvalsh(x)[0] >= -tol)
