"""Shared fixtures: closed-form reference values and small model builders.

Reference probabilities are frozen from the 1D constant-coefficient
first-passage formulas (reflection principle / drifted hitting law),
evaluated independently of the solver under test.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from safeprob import BarrierProblem, ControlSystem

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

# P(hit 0 by t=1) for X = 1 + t + W: Phi(-2) + exp(-2) Phi(0)
EXIT_DRIFTED = 0.09041777356648555
# Complement: P(min over [0,1] >= 0)
INVARIANCE_DRIFTED = 0.9095822264335145
# P(hit 0 by t=1) for X = -1 + t + W: Phi(0) + exp(2) Phi(-2)
ENTRY_RECOVERY = 0.6681020012231705
CONVERGENCE_RECOVERY = 0.33189799877682946
# Driftless reflection principle: 2 Phi(-1)
EXIT_DRIFTLESS = 0.31731050786291415
# Half-line heat kernel at x=1, T=1: erf(1/sqrt(2))
HEAT_HALFLINE = 0.6826894921370859
# sqrt(ln(2/0.05) / (2e5))
DKW_1E5 = 0.004294694083467375


def pin_cpus(monkeypatch, n):
    """Make ``n`` CPUs available to forked workers, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def const_system_1d(drift: float, gain: float, vol: float) -> ControlSystem:
    return ControlSystem(
        n=1, m=1, k=1,
        f=lambda X: np.full(X.shape[:-1] + (1,), drift),
        g=lambda X: np.full(X.shape[:-1] + (1, 1), gain),
        sigma=lambda X: np.full(X.shape[:-1] + (1, 1), vol),
    )


def identity_barrier() -> BarrierProblem:
    return BarrierProblem(
        phi=lambda X: X[..., 0],
        grad_phi=lambda X: np.ones_like(X),
        hess_phi=lambda X: np.zeros(X.shape[:-1] + (1, 1)),
    )


def quadratic_barrier() -> BarrierProblem:
    return BarrierProblem(
        phi=lambda X: X[..., 0] ** 2,
        grad_phi=lambda X: 2.0 * X,
        hess_phi=lambda X: np.full(X.shape[:-1] + (1, 1), 2.0),
    )


def zero_nominal(m: int):
    return lambda X: np.zeros(X.shape[:-1] + (m,))


@pytest.fixture
def drifted_bm():
    from safeprob import make_example
    return make_example("drifted_bm_1d")


@pytest.fixture(autouse=True)
def cold_factor_memo():
    """Each test starts with no axis factor kept from an earlier test's solves."""
    from safeprob import pde_engine
    pde_engine._factor_sets.clear()
