"""Property tests of the certification envelope (README, "Tolerances and envelope").

Inside the envelope every state that is separable by construction is
certified: N product terms that pass a fresh verify_ensemble.  Past it, at
filter conditions from 1e9 to 1e12, a state is certified or refused with a
typed error whose message carries the value it measured and the bound it
broke.
"""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pptsep import (
    CertificationFailure,
    DegeneracyUnresolved,
    GenSpec,
    StructureViolation,
    TripartiteDims,
    assemble_canonical_state,
    conjugate_local,
    decompose,
    gen_canonical_state,
    haar_unitary,
    verify_ensemble,
)

ENVELOPE_DIMS = [(2, 2, 2), (3, 3, 4), (2, 3, 5), (2, 2, 8), (4, 4, 6)]
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=30)
# Two numbers in the %.Ne format of the package's messages: the value and its bound.
VALUE_AND_BOUND = re.compile(r"\d\.\d+e[+-]\d+.*\d\.\d+e[+-]\d+")


def envelope_state(dims, seed, scale, cap, repeated, scrambled):
    """gen_canonical_state, optionally with a repeated joint eigenvalue and a Haar local scramble.

    The repeat moves each generator's eigenvalue on the second shared
    eigenvector onto its eigenvalue on the first.  The shared eigenbasis is
    the one gen_commuting_family draws from component stream 0 of the seed.
    """
    dims = TripartiteDims(*dims)
    k, m, n = dims.as_tuple()
    spec = GenSpec(dims, seed, generator_scale=scale, f_condition_cap=cap)
    state, truth = gen_canonical_state(spec)
    if repeated:
        u0 = haar_unitary(n, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))))
        first, second = u0[:, 0], u0[:, 1]

        def repeat(g):
            shift = first.conj() @ g @ first - second.conj() @ g @ second
            return g + shift * np.outer(second, second.conj())

        gens = [repeat(g) for g in truth.generators()]
        state, _ = assemble_canonical_state(dims, gens[: m - 1], gens[m - 1 :], truth.f)
    if scrambled:
        rng = np.random.default_rng([seed, 1])
        u_a, u_b, u_c = (haar_unitary(d, rng) for d in (k, m, n))
        state = conjugate_local(state, u_a, u_b, u_c)
    return state


@SETTINGS
@given(
    dims=st.sampled_from(ENVELOPE_DIMS),
    seed=st.integers(0, 2**16),
    log_scale=st.floats(-3, 2),
    log_cap=st.floats(0, 8),
    repeated=st.booleans(),
    scrambled=st.booleans(),
)
# Refused on the weight bound |sum p - 1| alone before the weights were
# normalized, although its reconstruction residual was within tol.
@example(dims=(3, 3, 4), seed=2, log_scale=0.0, log_cap=8.0, repeated=False, scrambled=False)
def test_every_state_inside_the_envelope_is_certified(
    dims, seed, log_scale, log_cap, repeated, scrambled
):
    state = envelope_state(dims, seed, 10.0**log_scale, 10.0**log_cap, repeated, scrambled)
    ensemble = decompose(state)
    assert len(ensemble.terms) == state.dims.n
    _, ok = verify_ensemble(state, ensemble)
    assert ok


@SETTINGS
@given(
    dims=st.sampled_from(ENVELOPE_DIMS),
    seed=st.integers(0, 2**16),
    log_scale=st.floats(-3, 2),
    log_cap=st.floats(9, 12),
    repeated=st.booleans(),
    scrambled=st.booleans(),
)
def test_past_the_envelope_every_refusal_names_its_bound(
    dims, seed, log_scale, log_cap, repeated, scrambled
):
    state = envelope_state(dims, seed, 10.0**log_scale, 10.0**log_cap, repeated, scrambled)
    try:
        ensemble = decompose(state)
    except (StructureViolation, DegeneracyUnresolved, CertificationFailure) as err:
        assert VALUE_AND_BOUND.search(str(err)), str(err)
    else:
        assert len(ensemble.terms) == state.dims.n
        _, ok = verify_ensemble(state, ensemble)
        assert ok
