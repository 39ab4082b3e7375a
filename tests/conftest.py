"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from pptsep import TripartiteDims, TripartiteState


@pytest.fixture
def bell_mixture():
    """rho = (|Phi+><Phi+| (x) |0><0| + |Psi+><Psi+| (x) |1><1|) / 2 on (2, 2, 2).

    Rank 2 = N and NPT (masks A and B fail), and no computational-basis pair
    on A, B has a full-rank sandwich block.
    """
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)
    psi = np.zeros(4)
    psi[[1, 2]] = 1 / np.sqrt(2)
    rho = (
        np.kron(np.outer(phi, phi), np.diag([1.0, 0.0]))
        + np.kron(np.outer(psi, psi), np.diag([0.0, 1.0]))
    ) / 2
    return TripartiteState(TripartiteDims(2, 2, 2), rho)


@pytest.fixture
def corner_only_state():
    """Factory: the (2, 2, 2) state whose only nonzero block is the corner F = [[1/2, a], [a, 1/2]].

    For a just above 1/2, F has the eigenvalue 1/2 - a < 0, inside the PPT
    tolerance, so the state is admitted and the corner block alone decides.
    """

    def build(a):
        rho = np.zeros((8, 8), dtype=complex)
        rho[6:, 6:] = [[0.5, a], [a, 0.5]]
        return TripartiteState(TripartiteDims(2, 2, 2), rho)

    return build
