"""Built-in example systems selectable by identifier.

Each bundle packages a system, barrier, and policy together with
recommended solver numerics, and is the basis of the shipped reference
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system_model import BarrierProblem, ControlSystem, Policy, linear_rate


@dataclass(frozen=True)
class ExampleBundle:
    name: str
    system: ControlSystem
    barrier: BarrierProblem
    policy: Policy
    box_lo: tuple
    box_hi: tuple
    cells: tuple
    dt: float
    x0: tuple
    horizon: float


def _drifted_bm_1d() -> ExampleBundle:
    # Unit-drift Brownian motion with identity barrier: the closed-form
    # first-passage reference used throughout the validation suite.
    sys = ControlSystem(
        n=1, m=1, k=1,
        f=lambda X: np.ones(X.shape[:-1] + (1,)),
        g=lambda X: np.zeros(X.shape[:-1] + (1, 1)),
        sigma=lambda X: np.ones(X.shape[:-1] + (1, 1)),
    )
    bar = BarrierProblem(
        phi=lambda X: X[..., 0],
        grad_phi=lambda X: np.ones_like(X),
        hess_phi=lambda X: np.zeros(X.shape[:-1] + (1, 1)),
        level=0.0,
    )
    policy = Policy(nominal=lambda X: np.zeros(X.shape[:-1] + (1,)),
                    kind="none")
    return ExampleBundle(
        name="drifted_bm_1d", system=sys, barrier=bar, policy=policy,
        box_lo=(0.0,), box_hi=(8.0,), cells=(800,), dt=1e-3,
        x0=(1.0,), horizon=1.0,
    )


_DI_SIGMA_V = 1.0
_DI_GAMMA = 10.0


def _double_integrator() -> ExampleBundle:
    # Planar point mass: position integrates velocity, force on velocity
    # only, actuation noise on velocity only.  Safe set is the unit disk
    # in (p, v); a zero-CBF filter guards a zero nominal.
    def f(X):
        out = np.zeros_like(X)
        out[..., 0] = X[..., 1]
        return out

    def g(X):
        out = np.zeros(X.shape[:-1] + (2, 1))
        out[..., 1, 0] = 1.0
        return out

    def sigma(X):
        out = np.zeros(X.shape[:-1] + (2, 1))
        out[..., 1, 0] = _DI_SIGMA_V
        return out

    def phi(X):
        return 1.0 - X[..., 0] ** 2 - X[..., 1] ** 2

    def grad(X):
        return -2.0 * X

    def hess(X):
        out = np.zeros(X.shape[:-1] + (2, 2))
        out[..., 0, 0] = -2.0
        out[..., 1, 1] = -2.0
        return out

    sys = ControlSystem(n=2, m=1, k=1, f=f, g=g, sigma=sigma)
    bar = BarrierProblem(phi=phi, grad_phi=grad, hess_phi=hess, level=0.0)
    policy = Policy(nominal=lambda X: np.zeros(X.shape[:-1] + (1,)),
                    kind="zero_cbf", alpha=linear_rate(_DI_GAMMA))
    # Odd velocity cell count keeps v=0 off the node lattice, where the
    # filter's actuated direction vanishes.
    return ExampleBundle(
        name="double_integrator", system=sys, barrier=bar, policy=policy,
        box_lo=(-1.05, -1.05), box_hi=(1.05, 1.05), cells=(168, 169), dt=1e-3,
        x0=(0.0, 0.0), horizon=1.0,
    )


def _unicycle_disk() -> ExampleBundle:
    # Unicycle with commanded speed/turn rate under a gradient policy
    # that cuts speed when the heading points out of the disk.
    def f(X):
        return np.zeros_like(X)

    def g(X):
        out = np.zeros(X.shape[:-1] + (3, 2))
        out[..., 0, 0] = np.cos(X[..., 2])
        out[..., 1, 0] = np.sin(X[..., 2])
        out[..., 2, 1] = 1.0
        return out

    def sigma(X):
        out = np.zeros(X.shape[:-1] + (3, 3))
        out[..., 0, 0] = 0.1
        out[..., 1, 1] = 0.1
        out[..., 2, 2] = 0.5
        return out

    def phi(X):
        return 1.0 - X[..., 0] ** 2 - X[..., 1] ** 2

    def grad(X):
        out = np.zeros_like(X)
        out[..., 0] = -2.0 * X[..., 0]
        out[..., 1] = -2.0 * X[..., 1]
        return out

    def hess(X):
        out = np.zeros(X.shape[:-1] + (3, 3))
        out[..., 0, 0] = -2.0
        out[..., 1, 1] = -2.0
        return out

    def nominal(X):
        out = np.zeros(X.shape[:-1] + (2,))
        out[..., 0] = 0.6
        return out

    sys = ControlSystem(n=3, m=2, k=3, f=f, g=g, sigma=sigma)
    bar = BarrierProblem(phi=phi, grad_phi=grad, hess_phi=hess, level=0.0)
    policy = Policy(nominal=nominal, kind="gradient",
                    c=lambda X: np.full(X.shape[:-1], 1.0))
    return ExampleBundle(
        name="unicycle_disk", system=sys, barrier=bar, policy=policy,
        box_lo=(-1.1, -1.1, -np.pi), box_hi=(1.1, 1.1, np.pi),
        cells=(22, 22, 12), dt=2e-3,
        x0=(0.0, 0.0, 0.0), horizon=0.5,
    )


_BUILDERS = {
    "drifted_bm_1d": _drifted_bm_1d,
    "double_integrator": _double_integrator,
    "unicycle_disk": _unicycle_disk,
}


def example_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def make_example(name: str) -> ExampleBundle:
    """Instantiate a built-in example bundle by identifier."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; available: {', '.join(example_names())}") from None
    return builder()
