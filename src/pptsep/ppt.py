"""Positivity and partial-transpose verdicts.

The full report covers the identity mask plus all seven non-trivial transpose
masks, but only four eigendecompositions are run: transposing a subsystem set
and transposing its complement give matrices that are transposes of each
other, hence share a spectrum.  The verdict for {B, C} is therefore read off
the eigenvalues of the {A} mask, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitianError
from .linalg import (
    ALL_MASKS,
    SubsystemMask,
    TripartiteState,
    as_complex_matrix,
    dagger,
    hermitize,
    partial_transpose,
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
    spectrum with the complement that was already computed.
    """
    if tol is None:
        tol = 1e-9 * float(state.rho.trace().real)
    spectra = [np.linalg.eigvalsh(hermitize(partial_transpose(state, m))) for m in ALL_MASKS[:4]]
    min_eig = {mask.label: float(w[0]) for mask, w in zip(ALL_MASKS[:4], spectra)}
    for mask in ALL_MASKS[4:]:
        min_eig[mask.label] = min_eig[mask.complement().label]
    entries = tuple(
        MaskResult(mask, min_eig[mask.label], min_eig[mask.label] >= -tol) for mask in ALL_MASKS
    )
    overall = all(e.passed for e in entries[:4])
    return PptReport(entries, overall, float(tol), spectrum=spectra[0])
