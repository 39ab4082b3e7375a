"""Typed exceptions raised across the package.

Every failure mode that callers are expected to branch on has its own class;
the CLI maps the class name straight into its JSON diagnostics, so these names
are part of the public contract.
"""


class PptSepError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PptSepError):
    """Objects refer to incompatible tripartite dimensions."""


class NotHermitianError(PptSepError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPsdError(PptSepError):
    """A matrix required to be positive semidefinite has a significant negative eigenvalue."""


class NormalizationError(PptSepError):
    """A vector or state fails its required normalization."""


class PreconditionError(PptSepError):
    """Constructor arguments violate a documented precondition."""


class NotPptError(PptSepError):
    """The state fails the positive-partial-transpose test, so the canonical form does not apply."""


class RankMismatch(PptSepError):
    """The state rank or corner-block rank differs from N, so the canonical form does not apply."""


class StructureViolation(PptSepError):
    """The filtered state is not of the required product-monomial form at the working tolerance."""


class CommutatorViolation(PptSepError):
    """Matrices required to be normal and pairwise commuting are not, beyond tolerance."""


class DegeneracyUnresolved(PptSepError):
    """No common eigenbasis could be resolved to the requested tolerance."""


class NoWitness(PptSepError):
    """No product witness with a full-rank sandwich block was found."""


class CertificationFailure(PptSepError):
    """A candidate ensemble failed its final reconstruction check and was discarded."""
