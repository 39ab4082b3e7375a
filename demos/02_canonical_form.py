"""Extracting the canonical form of a rank-N PPT state.

A state of rank N on C^K x C^M x C^N with an invertible corner block can be
brought, by one local filter on the third party, to a form in which every
N x N block is a product of two commuting normal matrices.  This script
generates such a state with known ground truth, re-derives the hidden
generator data from the density matrix alone, and checks every diagnostic
the extraction reports.
"""

import numpy as np

from pptsep import (
    GenSpec,
    TripartiteDims,
    extract_canonical,
    filter_corner,
    find_witness,
    gen_canonical_state,
    ppt_report,
)

dims = TripartiteDims(3, 3, 4)
state, truth = gen_canonical_state(GenSpec(dims=dims, seed=42))
print(f"generated a {dims.total} x {dims.total} state of rank {dims.n} "
      f"on C^{dims.k} x C^{dims.m} x C^{dims.n}")
print("PPT on all masks:", ppt_report(state).overall_ppt)

# --- step 1: find a product witness with an invertible sandwich ------------
witness = find_witness(state, mode="search")
print(f"\nwitness sandwich rank: {witness.sandwich_rank} (needs {dims.n})")

# --- step 2: rotate that witness into the corner and extract ---------------
form, diag = extract_canonical(state, tol=1e-8)
# (the residual lines are upper bounds, read off the state's N-column factor)
print("\nextraction diagnostics:")
print(f"  state rank                {diag.state_rank}")
print(f"  corner block rank         {diag.corner_rank}")
print(f"  reconstruction residual <= {diag.reconstruction_residual:.3e}")
print(f"  commutator max            {diag.commutator_max:.3e}")
print(f"  block-consistency gap   <= {diag.delta_norm:.3e}")
print(f"  kernel residual max     <= {diag.kernel_residual_max:.3e}")
print(f"  filter condition number   {diag.f_condition:.2f}")

# --- the recovered generators match the ones the state was built from ------
# (both families have the identity pinned at the last slot, so they can be
# compared directly once the basis agrees; here no local rotation was needed)
ga_err = max(np.linalg.norm(a - b) for a, b in zip(form.a_list, truth.a_list))
gb_err = max(np.linalg.norm(a - b) for a, b in zip(form.b_list, truth.b_list))
f_err = np.linalg.norm(form.f - truth.f)
print("\nrecovered vs ground truth:")
print(f"  A-side generators   {ga_err:.3e}")
print(f"  B-side generators   {gb_err:.3e}")
print(f"  filter F            {f_err:.3e}")

# --- every generator pair commutes (also with adjoints: they are normal) ---
gens = list(form.generators())
worst = 0.0
for x in gens:
    for y in gens:
        worst = max(worst, np.linalg.norm(x @ y - y @ x))
        worst = max(worst, np.linalg.norm(x @ y.conj().T - y.conj().T @ x))
print(f"\nworst commutator across the recovered family: {worst:.3e}")

# --- the block row T rebuilds the filtered state exactly -------------------
# (this state was generated corner-aligned, so no local rotation is needed
# before filtering; extract_canonical handles the rotated case internally)
t = form.t_matrix()
print("\nT has shape", t.shape, "- one N x N block per (u, v) pair")
rho_f, _ = filter_corner(state, form.f)
print("| T^dagger T - filtered state | =",
      f"{np.linalg.norm(t.conj().T @ t - rho_f):.3e}")
