"""pptsep: PPT verdicts, canonical forms, and certified separable decompositions.

The package works with tripartite states on C^K (x) C^M (x) C^N whose global
rank equals the dimension N of the third subsystem.  For such states, being
PPT forces — after a local filter on C — a rigid algebraic normal form built
from commuting normal matrices, and that form converts directly into an
explicit, machine-checkable separable ensemble.  Everything here is organized
around making each step of that chain an independently verifiable computation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CertificationFailure,
    CommutatorViolation,
    DegeneracyUnresolved,
    DimensionMismatch,
    NoWitness,
    NormalizationError,
    NotHermitianError,
    NotPptError,
    NotPsdError,
    PptSepError,
    PreconditionError,
    RankMismatch,
    StructureViolation,
)
from .linalg import (
    ALL_MASKS,
    MASK_A,
    MASK_B,
    MASK_C,
    MASK_NONE,
    SubsystemMask,
    TripartiteDims,
    TripartiteState,
    block,
    conjugate_local,
    dagger,
    hermitize,
    numeric_rank,
    partial_transpose,
    psd_sqrt,
    sandwich_ab,
)
from .ppt import MaskResult, PptReport, ppt_report
from .canonical import (
    CanonicalForm,
    ExtractionDiagnostics,
    ProductWitness,
    extract_canonical,
    filter_corner,
    find_witness,
    rotate_to_corner,
)
from .ensembles import (
    EigenTable,
    EnsembleTerm,
    SeparableEnsemble,
    decompose,
    ensemble_from_form,
    simultaneous_diagonalize,
    verify_ensemble,
)
from .generate import (
    GenSpec,
    assemble_canonical_state,
    gen_canonical_state,
    gen_commuting_family,
    gen_npt_control,
    ghz_vector,
    haar_unitary,
    identity_corner_state,
    qubit_corner_state,
    shifts_complement_state,
    shifts_product_vectors,
)
from .serialize import (
    load_canonical_form,
    load_ensemble,
    load_state,
    save_canonical_form,
    save_ensemble,
    save_state,
)

__version__ = "0.1.0"

# One list of public names: every name the imports above bind.  Importing
# from a submodule also binds the submodule itself, which is left out.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
