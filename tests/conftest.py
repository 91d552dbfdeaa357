"""Shared test fixtures and the tiny hand-checkable instance."""

import numpy as np
import pytest

from pdsg.problems import ProblemInstance


class LinearOneDim(ProblemInstance):
    """min x on [-10, 10] s.t. -x - 1 <= 0; solution x* = -1, f0* = -1.

    The objective subgradient is the deterministic constant 1, so the
    stochastic oracle (one sample, N = 1) has zero variance and hand
    simulation is exact.
    """

    def __init__(self):
        super().__init__(1, 1, [-10.0], [10.0], origin_feasible=True)

    def objective(self, x):
        return float(x[0])

    def objective_grad(self, x):
        return np.ones(1)

    def stoch_objective_grad(self, i, x):
        return np.ones(1)

    def constraint(self, j, x):
        return -float(x[0]) - 1.0, np.array([-1.0])

    def objective_curvature(self):
        return 0.0


@pytest.fixture
def one_dim():
    return LinearOneDim()
