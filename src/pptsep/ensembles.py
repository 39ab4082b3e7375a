"""Separable ensembles: construction from a canonical form, and certification.

A canonical form whose generators admit a common eigenbasis |f_0> .. |f_{N-1}>
yields an explicit product decomposition: with GA_v |f_n> = a_{v,n} |f_n> and
GB_u |f_n> = b_{u,n} |f_n>, the (unnormalized) product vectors

    vecA_n[u] = conj(b_{u,n})   (1 at u = K-1),
    vecB_n[v] = conj(a_{v,n})   (1 at v = M-1),
    vecC_n    = sqrt(F) |f_n>,

reconstruct the state as sum_n p_n |vecA_n vecB_n vecC_n><...| exactly.  In
the frame of the extraction's factor (see canonical), sqrt(F) |f_n> is
L_c |f'_n> for the common eigenvectors f'_n of its generators.  The
ensemble is certified by direct reconstruction before it is returned; nothing
downstream ever needs to trust the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CertificationFailure,
    CommutatorViolation,
    DegeneracyUnresolved,
    DimensionMismatch,
    NoWitness,
    PptSepError,
)
from .canonical import (
    CanonicalForm,
    _commutator_max,
    _completion_unitary,
    _extract,
    find_witness,
)
from .linalg import (
    CERT_TOL,
    TRACE_TOL,
    VEC_TOL,
    TripartiteDims,
    TripartiteState,
    _family_scale,
    dagger,
    hermitize,
    psd_sqrt,
)
from .ppt import _admit, _require_rank

# decompose no longer calls these, but benchmarks/spans.py traces calls
# through the module attributes, so they stay importable from here.
from .canonical import extract_canonical, rotate_to_corner  # noqa: F401
from .linalg import numeric_rank  # noqa: F401

# Attempts of simultaneous_diagonalize at a separating random combination.
JD_MAX_RETRIES = 8


@dataclass(frozen=True)
class EigenTable:
    """A common eigenbasis U (columns) and, per generator, its N eigenvalues."""

    u: np.ndarray
    values: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class EnsembleTerm:
    """One product term p |vec_a vec_b vec_c><vec_a vec_b vec_c| with unit vectors."""

    p: float
    vec_a: np.ndarray
    vec_b: np.ndarray
    vec_c: np.ndarray


@dataclass(frozen=True)
class SeparableEnsemble:
    """A finite mixture of normalized product states on C^K (x) C^M (x) C^N."""

    dims: TripartiteDims
    terms: tuple[EnsembleTerm, ...]

    def reconstruct(self) -> np.ndarray:
        """Sum the terms back into a density matrix: (W * p) W† for the product vectors W.

        Row n of W is vec_a (x) vec_b (x) vec_c of term n, built for all terms
        by one broadcast that forms the products in np.kron's order.
        """
        k, m, n = self.dims.as_tuple()
        a, b, c = (
            np.array([getattr(t, name) for t in self.terms], dtype=complex).reshape(-1, size)
            for name, size in (("vec_a", k), ("vec_b", m), ("vec_c", n))
        )
        w = (a[:, :, None, None] * b[:, None, :, None] * c[:, None, None, :]).reshape(
            -1, self.dims.total
        )
        p = np.array([t.p for t in self.terms], dtype=float)
        return (w.T * p) @ w.conj()

    def total_weight(self) -> float:
        return float(sum(t.p for t in self.terms))


def _offdiag_max(u: np.ndarray, gens: list[np.ndarray]) -> float:
    worst = 0.0
    for g in gens:
        d = dagger(u) @ g @ u
        worst = max(worst, float(np.linalg.norm(d - np.diag(np.diag(d)))))
    return worst


def _phase_fix(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    u is unitary, so that entry of each column has magnitude at least 1/sqrt(N).
    """
    u = u.copy()
    for c in range(u.shape[1]):
        piv = u[int(np.argmax(np.abs(u[:, c]))), c]
        u[:, c] *= np.conj(piv) / abs(piv)
    return u


def simultaneous_diagonalize(
    generators: list[np.ndarray],
    tol: float = CERT_TOL,
    seed: int = 0,
    *,
    refine_by: np.ndarray | None = None,
) -> EigenTable:
    """Common eigenbasis of a family of normal, pairwise-commuting matrices.

    Strategy: diagonalize a random real-coefficient combination of the
    Hermitian and anti-Hermitian parts of the family (one eigh call), accept if
    every generator is diagonal in that basis, and retry with fresh
    coefficients up to JD_MAX_RETRIES times if not.  A random combination
    separates distinct joint eigenvalues almost surely; the retries cover the
    rare draw that nearly merges two of them.

    refine_by, if given, is a Hermitian matrix used to fix the remaining basis
    freedom: columns with identical joint eigenvalues are rotated to
    diagonalize it inside each degenerate group.  (Any orthonormal basis of a
    joint eigenspace is equally valid for the generators; the hook lets the
    caller pick the one that also diagonalizes the compressed filter.)

    Raises CommutatorViolation if the family is not normal/commuting within
    tol * s², DegeneracyUnresolved (with the best residual and the bound) if no
    attempt reaches the target residual tol * s, for the family scale
    s = max(1, max ||g||_F).  Joint eigenvalues within tol * s of each other
    form one degenerate group for refine_by.
    """
    if not generators:
        raise ValueError("need at least one generator")
    gens = [np.asarray(g, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionMismatch("generators must share one square shape")
    scale = _family_scale(gens)
    defect = _commutator_max(gens)
    if defect > tol * scale**2:
        raise CommutatorViolation(
            f"family is not normal/commuting within tolerance (defect {defect:.3e})"
        )
    accept = tol * scale

    parts: list[np.ndarray] = []
    for g in gens:
        parts.append(hermitize(g))
        parts.append((g - dagger(g)) / 2j)

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    best_off = np.inf
    for _ in range(JD_MAX_RETRIES):
        coeff = rng.standard_normal(len(parts))
        h = sum(c * p for c, p in zip(coeff, parts))
        _, u = np.linalg.eigh(h)
        off = _offdiag_max(u, gens)
        if off <= accept:
            break
        best_off = min(best_off, off)
    else:
        raise DegeneracyUnresolved(
            f"no common eigenbasis reached residual {accept:.1e} in {JD_MAX_RETRIES} attempts "
            f"(best {best_off:.3e})"
        )

    if refine_by is not None:
        refine = hermitize(np.asarray(refine_by, dtype=complex))
        vals = np.array([np.diag(dagger(u) @ g @ u) for g in gens])
        # Equal joint eigenvalues give equal eigenvalues of h, which eigh
        # returns as adjacent columns: a group is a run of columns within
        # accept of its first column.
        start = 0
        for j in range(1, n + 1):
            if j < n and float(np.max(np.abs(vals[:, start] - vals[:, j]))) <= accept:
                continue
            if j - start > 1:
                sub = u[:, start:j]
                _, v = np.linalg.eigh(hermitize(dagger(sub) @ refine @ sub))
                u[:, start:j] = sub @ v
            start = j

    u = _phase_fix(u)
    values = tuple(np.diag(dagger(u) @ g @ u).copy() for g in gens)
    return EigenTable(u=u, values=values)


def ensemble_from_form(form: CanonicalForm, tol: float = CERT_TOL, seed: int = 0) -> SeparableEnsemble:
    """Build the product ensemble certified by a canonical form.

    The generators are jointly diagonalized (with the filter F refining any
    leftover degeneracy), and each common eigenvector contributes one product
    term.  Weights are the squared norms of the unnormalized product vectors,
    divided by their sum; vec_a and vec_b are returned in the original frame,
    i.e. rotated back through the form's local unitaries.

    The raw weights sum to trace(sum_n p_n P_n), which differs from
    trace(rho) = 1 by up to sqrt(KMN) * ||rho - sum_n p_n P_n||_F: with a
    badly conditioned filter that exceeds TRACE_TOL while the reconstruction
    residual is still within tol.  Dividing by the sum leaves every vector as
    it is, and the certification that follows checks the result at the same
    tol, with every bound unchanged.
    """
    return _ensemble(form, psd_sqrt(form.f), tol, seed)


def _ensemble(form: CanonicalForm, corner: np.ndarray, tol: float, seed: int) -> SeparableEnsemble:
    """ensemble_from_form with vecC_n = corner @ f_n, the form's filter refining.

    corner is F^{1/2} for a form in the state's frame.  For the extraction's
    form in the frame of W it is L_c = F^{1/2} W, which also carries the C
    vectors back to the state's frame.
    """
    k, m, n = form.dims.as_tuple()
    table = simultaneous_diagonalize(form.generators(), tol=tol, seed=seed, refine_by=form.f)
    a_vals, b_vals = table.values[: m - 1], table.values[m - 1 :]
    ua_back, ub_back = dagger(form.local_u_a), dagger(form.local_u_b)
    raw = []
    for i in range(n):
        vec_a = np.append(np.conj([bv[i] for bv in b_vals]), 1.0).astype(complex)
        vec_b = np.append(np.conj([av[i] for av in a_vals]), 1.0).astype(complex)
        vec_c = corner @ table.u[:, i]
        na, nb, nc = (np.linalg.norm(v) for v in (vec_a, vec_b, vec_c))
        p = float((na * nb * nc) ** 2)
        raw.append((p, ua_back @ (vec_a / na), ub_back @ (vec_b / nb), vec_c / nc))
    raw.sort(key=lambda r: -r[0])
    total = sum(r[0] for r in raw)
    return SeparableEnsemble(form.dims, tuple(EnsembleTerm(p / total, *vecs) for p, *vecs in raw))


def decompose(
    state: TripartiteState,
    tol: float = CERT_TOL,
    witness: str = "search",
    seed: int = 0,
    *,
    samples: int = 256,
    e_a: np.ndarray | None = None,
    f_b: np.ndarray | None = None,
) -> SeparableEnsemble:
    """Full pipeline: witness, rotation, canonical form, certified product ensemble.

    The input is admitted before any witness is sought (ppt._admit): masks
    A, B and C and then rho itself are each settled by N steps of pivoted
    Cholesky, which certify PSD at O((KMN)² N) where they can, and rho's
    steps also give a KMN x N factor L with ||rho - LL†||_F certified.  On
    the success path no eigendecomposition of the state runs: the rank
    precondition is "within tol of rank N", the certificate's own standard.
    By Eckart-Young-Mirsky, the certified N-term ensemble bounds the
    eigenvalues of rho beyond the N-th, (sum_{i>N} lambda_i²)^{1/2} <=
    tol * ||rho||_F.  The state's spectrum, and with it the rank test, is
    computed only when a certificate fails or a later stage refuses, and a
    rank other than N then takes the refusal's place.

    Every stage after the gate works on L's N x N blocks L_r, not on rho:
    the witness is scored by the singular values of sum_r conj(w_r) L_r
    (find_witness with the factor), the rotation U_A (x) U_B acts on L's
    (KM, N²) view, the extraction reads the generators off
    T_r = (L_c^{-1} L_r)† and decides the corner block F = L_c L_c† by the
    singular values of L_c (canonical._extract), and the ensemble's C
    vectors are L_c times the common eigenvectors.  The only later stage
    that reads rho is the certificate, verify_ensemble at tol, O((KMN)² N).
    The one exception is a factor whose pivoting stopped before N columns
    (rho has an eigenvalue at zero or below within the PPT tolerance): no
    B B† then has rank N, so the witness is scored on rho's dense sandwiches
    instead, and a pair found there is refused by the corner rank of item 4.
    Refusals come in this order:

    1. RankMismatch: the global rank differs from N (the construction does
       not apply);
    2. NotPptError: some partial transpose has a negative eigenvalue;
    3. NoWitness: no product pair with a full-rank sandwich block was found;
    4. RankMismatch when the rotated corner block L_c L_c† has rank below N
       by the rank rule (at the cutoff's edge), or StructureViolation from
       the extraction's monomial and commutator bounds, then
       DegeneracyUnresolved from the joint diagonalization.  Its
       CommutatorViolation cannot arise here: the extraction has already
       tested the same _commutator_max of the same generators against the
       same tol * s²;
    5. CertificationFailure: the candidate ensemble failed its reconstruction
       check at tol and was discarded.

    The returned ensemble has been verified by reconstruction at tol.
    """
    admission = _admit(state)
    k, m, n = state.dims.as_tuple()
    try:
        w = find_witness(
            state, witness, samples=samples, seed=seed, e_a=e_a, f_b=f_b, factor=admission.factor
        )
        if w is None:
            raise NoWitness("no product witness with a full-rank sandwich block was found")
        u_a, u_b = _completion_unitary(w.e_a, k), _completion_unitary(w.f_b, m)
        rotated = np.kron(u_a, u_b) @ admission.factor.reshape(k * m, n * n)
        form, corner, *_ = _extract(rotated, state.dims, admission.residual, admission.norm, tol)
        ensemble = _ensemble(replace(form, local_u_a=u_a, local_u_b=u_b), corner, tol, seed)
        # The public check gives the verdict; the failed invariants are listed
        # again only on the refusal path, for the message.
        _, ok = verify_ensemble(state, ensemble, tol=tol)
        if not ok:
            _, failures = _certification_failures(state, ensemble, tol)
            raise CertificationFailure(
                f"candidate ensemble failed certification: {'; '.join(failures)}"
            )
    except PptSepError:
        if not admission.rank_tested:
            _require_rank(state)
        raise
    return ensemble


def _certification_failures(
    state: TripartiteState, ensemble: SeparableEnsemble, tol: float
) -> tuple[float, list[str]]:
    """Reconstruction residual, and one line per failed ensemble invariant.

    Each line names the invariant with its value and the bound it broke.
    """
    if state.dims != ensemble.dims:
        raise DimensionMismatch(
            f"state dims {state.dims.as_tuple()} != ensemble dims {ensemble.dims.as_tuple()}"
        )
    # Finite values that overflow here give inf or NaN, which fail the bounds
    # below (and which cmd_verify refuses as an input error).
    with np.errstate(over="ignore", invalid="ignore"):
        recon = ensemble.reconstruct()
        residual = float(np.linalg.norm(state.rho - recon) / np.linalg.norm(state.rho))
        vecs = [v for t in ensemble.terms for v in (t.vec_a, t.vec_b, t.vec_c)]
        gaps = np.array([abs(np.linalg.norm(v) - 1.0) for v in vecs])
    failures = []
    if not residual <= tol:
        failures.append(f"reconstruction residual {residual:.3e} > tol {tol:.1e}")
    weight_gap = abs(ensemble.total_weight() - 1.0)
    if weight_gap > TRACE_TOL:
        failures.append(f"|sum p - 1| {weight_gap:.3e} > TRACE_TOL {TRACE_TOL:.1e}")
    weights = np.array([t.p for t in ensemble.terms])
    if not np.all(weights > 0):
        failures.append(f"min p {weights.min():.3e} <= 0")
    if np.any(gaps > VEC_TOL):
        failures.append(f"vector-norm gap {gaps[gaps > VEC_TOL].max():.3e} > VEC_TOL {VEC_TOL:.1e}")
    return residual, failures


def verify_ensemble(
    state: TripartiteState, ensemble: SeparableEnsemble, tol: float = CERT_TOL
) -> tuple[float, bool]:
    """Reconstruction residual of the ensemble against the state, plus a verdict.

    The residual is ||rho - sum_n p_n P_n||_F / ||rho||_F.  The verdict also
    requires the ensemble invariants: strictly positive weights summing to one,
    and unit product vectors.  Mismatched dimensions raise DimensionMismatch.
    """
    residual, failures = _certification_failures(state, ensemble, tol)
    return residual, not failures
