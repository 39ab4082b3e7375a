"""Separable ensembles: construction from a canonical form, and certification.

A canonical form whose generators admit a common eigenbasis |f_0> .. |f_{N-1}>
yields an explicit product decomposition: with GA_v |f_n> = a_{v,n} |f_n> and
GB_u |f_n> = b_{u,n} |f_n>, the (unnormalized) product vectors

    vecA_n[u] = conj(b_{u,n})   (1 at u = K-1),
    vecB_n[v] = conj(a_{v,n})   (1 at v = M-1),
    vecC_n    = sqrt(F) |f_n>,

reconstruct the state as sum_n p_n |vecA_n vecB_n vecC_n><...| exactly.  The
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
    RankMismatch,
)
from .canonical import (
    CanonicalForm,
    extract_canonical,
    find_witness,
    rotate_to_corner,
    _commutator_max,
)
from .linalg import (
    TRACE_TOL,
    VEC_TOL,
    TripartiteDims,
    TripartiteState,
    dagger,
    hermitize,
    numeric_rank,
    psd_sqrt,
)


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
        """Sum the terms back into a density matrix (deterministic term order)."""
        d = self.dims.total
        out = np.zeros((d, d), dtype=complex)
        for t in self.terms:
            w = np.kron(np.kron(t.vec_a, t.vec_b), t.vec_c)
            out += t.p * np.outer(w, w.conj())
        return out

    def total_weight(self) -> float:
        return float(sum(t.p for t in self.terms))


def _offdiag_max(u: np.ndarray, gens: list[np.ndarray]) -> float:
    worst = 0.0
    for g in gens:
        d = dagger(u) @ g @ u
        worst = max(worst, float(np.linalg.norm(d - np.diag(np.diag(d)))))
    return worst


def _phase_fix(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    u = u.copy()
    for c in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, c])))
        piv = u[i, c]
        if piv != 0:
            u[:, c] *= np.conj(piv) / abs(piv)
    return u


def _split_groups(order_vals: np.ndarray, groups: list[list[int]], tol: float) -> list[list[int]]:
    """Split index groups wherever consecutive sorted values gap by more than tol."""
    out: list[list[int]] = []
    for grp in groups:
        vals = order_vals[grp]
        idx = np.argsort(vals, kind="stable")
        current = [grp[idx[0]]]
        for prev, cur in zip(idx, idx[1:]):
            if vals[cur] - vals[prev] > tol:
                out.append(current)
                current = []
            current.append(grp[cur])
        out.append(current)
    return out


def simultaneous_diagonalize(
    generators: list[np.ndarray],
    tol: float = 1e-8,
    seed: int = 0,
    *,
    refine_by: np.ndarray | None = None,
    max_retries: int = 8,
) -> EigenTable:
    """Common eigenbasis of a family of normal, pairwise-commuting matrices.

    Strategy: diagonalize a random real-coefficient combination of the
    Hermitian and anti-Hermitian parts of the family (one eigh call), accept if
    every generator is diagonal in that basis, and retry with fresh
    coefficients a few times if not.  If retries run out, fall back to
    deterministic sequential refinement: diagonalize each Hermitian part inside
    the still-degenerate index groups, splitting groups at eigenvalue gaps.

    refine_by, if given, is a Hermitian matrix used to fix the remaining basis
    freedom: columns with identical joint eigenvalues are rotated to
    diagonalize it inside each degenerate group.  (Any orthonormal basis of a
    joint eigenspace is equally valid for the generators; the hook lets the
    caller pick the one that also diagonalizes the compressed filter.)

    Raises CommutatorViolation if the family is not normal/commuting within
    tol (scaled by squared generator norm), DegeneracyUnresolved if no basis
    reaches the target residual.
    """
    if not generators:
        raise ValueError("need at least one generator")
    gens = [np.asarray(g, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionMismatch("generators must share one square shape")
    gscale = max(1.0, max(float(np.linalg.norm(g)) for g in gens)) ** 2
    defect = _commutator_max(gens)
    if defect > tol * gscale:
        raise CommutatorViolation(
            f"family is not normal/commuting within tolerance (defect {defect:.3e})"
        )
    accept = tol * max(1.0, max(float(np.linalg.norm(g)) for g in gens))

    parts: list[np.ndarray] = []
    for g in gens:
        parts.append(hermitize(g))
        parts.append((g - dagger(g)) / 2j)

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    best_u = None
    best_off = np.inf
    for _ in range(max_retries):
        coeff = rng.standard_normal(len(parts))
        h = sum(c * p for c, p in zip(coeff, parts))
        _, u = np.linalg.eigh(h)
        off = _offdiag_max(u, gens)
        if off < best_off:
            best_off, best_u = off, u
        if off <= accept:
            break

    u = best_u
    if best_off > accept:
        # Deterministic fallback: refine degenerate groups one Hermitian part
        # at a time, splitting wherever the compressed spectrum has a gap.
        u = np.eye(n, dtype=complex)
        groups = [list(range(n))]
        for p in parts:
            pscale = max(1.0, float(np.linalg.norm(p)))
            vals = np.empty(n)
            for grp in groups:
                if len(grp) == 1:
                    sub = u[:, grp[0]]
                    vals[grp[0]] = float((dagger(sub) @ p @ sub).real)
                    continue
                sub = u[:, grp]
                w, v = np.linalg.eigh(hermitize(dagger(sub) @ p @ sub))
                u[:, grp] = sub @ v
                vals[grp] = w
            groups = _split_groups(vals, groups, tol * pscale)
        off = _offdiag_max(u, gens)
        if off > accept:
            raise DegeneracyUnresolved(
                f"no common eigenbasis reached residual {accept:.1e} (best {off:.3e})"
            )

    if refine_by is not None:
        refine = hermitize(np.asarray(refine_by, dtype=complex))
        vals = np.array([np.diag(dagger(u) @ g @ u) for g in gens])
        group_tol = tol * max(1.0, np.sqrt(gscale))
        used = np.zeros(n, dtype=bool)
        for i in range(n):
            if used[i]:
                continue
            grp = [i]
            used[i] = True
            for j in range(i + 1, n):
                if not used[j] and float(np.max(np.abs(vals[:, i] - vals[:, j]))) <= group_tol:
                    grp.append(j)
                    used[j] = True
            if len(grp) > 1:
                sub = u[:, grp]
                _, v = np.linalg.eigh(hermitize(dagger(sub) @ refine @ sub))
                u[:, grp] = sub @ v

    u = _phase_fix(u)
    values = tuple(np.diag(dagger(u) @ g @ u).copy() for g in gens)
    return EigenTable(u=u, values=values)


def ensemble_from_form(form: CanonicalForm, tol: float = 1e-8, seed: int = 0) -> SeparableEnsemble:
    """Build the product ensemble certified by a canonical form.

    The generators are jointly diagonalized (with the filter F refining any
    leftover degeneracy), and each common eigenvector contributes one product
    term.  Weights are the squared norms of the unnormalized product vectors;
    vec_a and vec_b are returned in the original frame, i.e. rotated back
    through the form's local unitaries.
    """
    k, m, n = form.dims.as_tuple()
    table = simultaneous_diagonalize(form.generators(), tol=tol, seed=seed, refine_by=form.f)
    a_vals = table.values[: m - 1]
    b_vals = table.values[m - 1 :]
    sqrt_f = psd_sqrt(form.f)
    ua_back = dagger(form.local_u_a)
    ub_back = dagger(form.local_u_b)
    terms = []
    for i in range(n):
        vec_a = np.append(np.conj([bv[i] for bv in b_vals]), 1.0).astype(complex)
        vec_b = np.append(np.conj([av[i] for av in a_vals]), 1.0).astype(complex)
        vec_c = sqrt_f @ table.u[:, i]
        na, nb, nc = (np.linalg.norm(v) for v in (vec_a, vec_b, vec_c))
        p = float((na * nb * nc) ** 2)
        terms.append(
            EnsembleTerm(
                p=p,
                vec_a=ua_back @ (vec_a / na),
                vec_b=ub_back @ (vec_b / nb),
                vec_c=vec_c / nc,
            )
        )
    terms.sort(key=lambda t: -t.p)
    return SeparableEnsemble(dims=form.dims, terms=tuple(terms))


def decompose(
    state: TripartiteState,
    tol: float = 1e-8,
    witness: str = "search",
    seed: int = 0,
    *,
    samples: int = 256,
    e_a: np.ndarray | None = None,
    f_b: np.ndarray | None = None,
) -> SeparableEnsemble:
    """Full pipeline: witness, rotation, canonical form, certified product ensemble.

    Raises RankMismatch if the global rank differs from N (the construction
    does not apply), NoWitness if no full-rank sandwich is found, and
    propagates NotPptError / StructureViolation from the extraction.  The
    returned ensemble has been verified by reconstruction at tol;
    CertificationFailure is raised (and the ensemble discarded) otherwise.
    """
    n = state.dims.n
    state_rank = numeric_rank(state.rho)
    if state_rank != n:
        raise RankMismatch(f"state rank {state_rank} != N = {n}; decomposition does not apply")
    w = find_witness(state, witness, samples=samples, seed=seed, e_a=e_a, f_b=f_b)
    if w is None:
        raise NoWitness("no product witness with a full-rank sandwich block was found")
    rotated, u_a, u_b = rotate_to_corner(state, w)
    form, _diag = extract_canonical(rotated, tol=tol)
    form = replace(form, local_u_a=u_a, local_u_b=u_b)
    ensemble = ensemble_from_form(form, tol=tol, seed=seed)
    # The public check gives the verdict; the failed invariants are listed
    # again only on the refusal path, for the message.
    _, ok = verify_ensemble(state, ensemble, tol=tol)
    if not ok:
        _, failures = _certification_failures(state, ensemble, tol)
        raise CertificationFailure(f"candidate ensemble failed certification: {'; '.join(failures)}")
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
    recon = ensemble.reconstruct()
    residual = float(np.linalg.norm(state.rho - recon) / np.linalg.norm(state.rho))
    failures = []
    if not residual <= tol:
        failures.append(f"reconstruction residual {residual:.3e} > tol {tol:.1e}")
    weight_gap = abs(ensemble.total_weight() - 1.0)
    if weight_gap > TRACE_TOL:
        failures.append(f"|sum p - 1| {weight_gap:.3e} > TRACE_TOL {TRACE_TOL:.1e}")
    weights = np.array([t.p for t in ensemble.terms])
    if not np.all(weights > 0):
        failures.append(f"min p {weights.min():.3e} <= 0")
    gaps = np.array(
        [abs(np.linalg.norm(v) - 1.0) for t in ensemble.terms for v in (t.vec_a, t.vec_b, t.vec_c)]
    )
    if np.any(gaps > VEC_TOL):
        failures.append(f"vector-norm gap {gaps[gaps > VEC_TOL].max():.3e} > VEC_TOL {VEC_TOL:.1e}")
    return residual, failures


def verify_ensemble(
    state: TripartiteState, ensemble: SeparableEnsemble, tol: float = 1e-8
) -> tuple[float, bool]:
    """Reconstruction residual of the ensemble against the state, plus a verdict.

    The residual is ||rho - sum_n p_n P_n||_F / ||rho||_F.  The verdict also
    requires the ensemble invariants: strictly positive weights summing to one,
    and unit product vectors.  Mismatched dimensions raise DimensionMismatch.
    """
    residual, failures = _certification_failures(state, ensemble, tol)
    return residual, not failures
