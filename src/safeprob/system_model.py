"""Stochastic control system, barrier function, and safe-control policies.

The model is a controlled diffusion

    dX = (f(X) + g(X) U) dt + sigma(X) dW,    U = K(X),

together with a scalar barrier ``phi`` whose zero super-level set
``{phi >= 0}`` is the safe region; a distribution query picks the level
``l`` of the set ``{phi >= l}`` it asks about.  This module builds the
closed-loop control law K for the supported policy kinds and the
generator drift of ``phi`` used by the distribution solvers.  The barrier
carries its gradient and Hessian, which give that drift, ``L_g phi`` and
the variance rate of ``phi``; a model document's barrier gets them exactly
from its expression (``safeprob.expressions``).

Evaluators are callables on stacked states of shape ``(B, n)`` that
return outputs with a leading batch axis.  The ``*_at`` helpers and the
batch functions take stacked states only and raise ``ShapeError`` on any
other shape; a lone state ``x`` is passed as ``x[None]``.  Evaluators
must be pure: repeated evaluation at the same state must return
identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, InfeasibilityError, ShapeError

# Below this squared norm the actuated direction L_g(phi) is treated as
# vanished, making a violated rate constraint infeasible.
_LG_FLOOR = 1e-24

# Step of the finite-difference gradients that check hand-written ones.
FD_STEP = 1e-5

POLICY_KINDS = ("none", "zero_cbf", "gradient")


def _as_batch(x, n: int | None = None, name: str = "state") -> np.ndarray:
    """``x`` as stacked states of shape (B, n), any n when ``n`` is None."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or n not in (None, arr.shape[1]):
        raise ShapeError(f"{name} has shape {arr.shape}, expected (B, {n or 'n'})")
    return arr


def _eval_batch(fn: Callable, X: np.ndarray, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Evaluate ``fn`` on stacked states, returning shape (B,) + shape."""
    out = np.asarray(fn(X), dtype=float)
    want = (X.shape[0],) + shape
    if out.shape != want:
        raise ShapeError(f"{name} returned shape {out.shape} on a batch, expected {want}")
    return out


def fd_gradient_batch(fn: Callable, X: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradients of a batch-capable scalar function."""
    X = _as_batch(X)
    cols = []
    for e in step * np.eye(X.shape[1]):
        cols.append((np.asarray(fn(X + e), dtype=float)
                     - np.asarray(fn(X - e), dtype=float)) / (2.0 * step))
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ControlSystem:
    """Coefficients of the controlled SDE.

    ``f`` maps a state to the drift (n,), ``g`` to the actuation gain
    (n, m), and ``sigma`` to the diffusion (n, k).
    """

    n: int
    m: int
    k: int
    f: Callable
    g: Callable
    sigma: Callable

    def __post_init__(self):
        for name in ("n", "m", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")

    def f_at(self, X) -> np.ndarray:
        return _eval_batch(self.f, _as_batch(X, self.n), (self.n,), "f")

    def g_at(self, X) -> np.ndarray:
        return _eval_batch(self.g, _as_batch(X, self.n), (self.n, self.m), "g")

    def sigma_at(self, X) -> np.ndarray:
        return _eval_batch(self.sigma, _as_batch(X, self.n), (self.n, self.k), "sigma")


@dataclass(frozen=True)
class BarrierProblem:
    """Barrier function with its gradient and Hessian evaluators.

    A model document's barrier carries the exact derivatives of its
    expression; ``validate_barrier`` checks hand-written ones.  The zero
    super-level set ``{x : phi(x) >= 0}`` is the safe region; the query
    picks the level.
    """

    phi: Callable
    grad_phi: Callable
    hess_phi: Callable

    def phi_at(self, X) -> np.ndarray:
        return _eval_batch(self.phi, _as_batch(X), (), "phi")

    def finite_phi_at(self, X, where: str) -> np.ndarray:
        """``phi_at``; DataError names the first state (a ``where``) where phi is not finite."""
        phi = self.phi_at(X := _as_batch(X))
        bad = ~np.isfinite(phi)
        if bad.any():
            raise DataError(f"barrier phi is {phi[bad][0]} at {where} {X[bad][0].tolist()}; "
                            "it must be finite there")
        return phi

    def grad_at(self, X) -> np.ndarray:
        X = _as_batch(X)
        return _eval_batch(self.grad_phi, X, (X.shape[1],), "grad_phi")

    def hess_at(self, X) -> np.ndarray:
        X = _as_batch(X)
        return _eval_batch(self.hess_phi, X, (X.shape[1], X.shape[1]), "hess_phi")


def linear_rate(gain: float) -> Callable:
    """Linear rate function alpha(s) = gain * s, gain > 0."""
    if gain <= 0:
        raise ValueError("rate gain must be positive")

    def alpha(s):
        return gain * np.asarray(s, dtype=float)

    return alpha


@dataclass(frozen=True)
class Policy:
    """Closed-loop control policy.

    ``kind`` selects the law: ``none`` passes the nominal through,
    ``zero_cbf`` applies the minimum-norm rate-constraint filter, and
    ``gradient`` adds ``c(x) * L_g(phi)^T`` to the nominal.  ``alpha``
    defaults to the linear rate s -> s.
    """

    nominal: Callable
    kind: str = "none"
    alpha: Callable | None = None
    c: Callable | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if self.kind == "gradient" and self.c is None:
            raise ValueError("gradient policy requires the gain evaluator c")

    def rate_at(self, s) -> np.ndarray:
        alpha = self.alpha if self.alpha is not None else linear_rate(1.0)
        return np.asarray(alpha(np.asarray(s, dtype=float)), dtype=float)

    def nominal_at(self, X, m: int) -> np.ndarray:
        return _eval_batch(self.nominal, _as_batch(X), (m,), "nominal")

    def c_at(self, X) -> np.ndarray:
        X = _as_batch(X)
        out = _eval_batch(self.c, X, (), "c")
        if np.any(out < 0):
            bad = X[np.argmax(out < 0)]
            raise DataError(f"gradient gain c is negative at state {bad.tolist()}")
        return out


def _grad_lie_g(sys: ControlSystem, bar: BarrierProblem,
                Xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The barrier gradient and L_g(phi) = grad(phi)^T g at stacked states."""
    grad = bar.grad_at(Xb)
    return grad, np.einsum("bi,bim->bm", grad, sys.g_at(Xb))


def lie_g(sys: ControlSystem, bar: BarrierProblem, X) -> np.ndarray:
    """Actuated direction L_g(phi) = grad(phi)^T g at stacked states, shape (B, m)."""
    return _grad_lie_g(sys, bar, _as_batch(X, sys.n))[1]


def d_phi_batch(sys: ControlSystem, bar: BarrierProblem, X, U) -> np.ndarray:
    """Generator drift of phi at stacked states/inputs, shape (B,)."""
    Xb = _as_batch(X, sys.n)
    Ub = _as_batch(U, sys.m, "input")
    if Ub.shape[0] != Xb.shape[0]:
        raise ShapeError(f"input batch {Ub.shape[0]} does not match state batch {Xb.shape[0]}")
    return _d_phi(sys, bar, Xb, Ub, *_grad_lie_g(sys, bar, Xb))


def _d_phi(sys: ControlSystem, bar: BarrierProblem, Xb: np.ndarray, Ub: np.ndarray,
           grad: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """``d_phi_batch`` given the batch's barrier gradient and L_g(phi)."""
    hess = bar.hess_at(Xb)
    fvec = sys.f_at(Xb)
    sig = sys.sigma_at(Xb)
    drift = np.einsum("bi,bi->b", grad, fvec)
    actuated = np.einsum("bm,bm->b", lg, Ub)
    # 1/2 tr(sigma sigma^T hess), contracted in two steps: one three-operand
    # einsum is about 1.6x slower on the 2D batches of the zero-CBF filter.
    trace = 0.5 * np.einsum("bij,bij->b", np.einsum("bik,bjk->bij", sig, sig), hess)
    return drift + actuated + trace


def closed_loop_control_batch(policy: Policy, sys: ControlSystem, bar: BarrierProblem,
                              X) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop inputs for stacked states.

    Returns ``(U, infeasible)`` where ``infeasible`` marks states at which
    the zero-CBF filter has no admissible input (the returned row there is
    the unmodified nominal and must not be trusted).
    """
    Xb = _as_batch(X, sys.n)
    U = policy.nominal_at(Xb, sys.m)
    infeasible = np.zeros(Xb.shape[0], dtype=bool)
    if policy.kind == "none":
        return U, infeasible
    grad, lg = _grad_lie_g(sys, bar, Xb)
    if policy.kind == "gradient":
        return U + policy.c_at(Xb)[:, None] * lg, infeasible
    # zero_cbf: keep the nominal when it satisfies the rate constraint,
    # otherwise apply the minimum-norm correction along L_g(phi)^T.
    d_nom = _d_phi(sys, bar, Xb, U, grad, lg)
    slack = policy.rate_at(bar.phi_at(Xb))
    # A derivative without a value makes d_nom NaN, which counts as violated:
    # its correction is NaN too, so the state ends as a non-finite phi does.
    violated = ~(d_nom >= -slack)
    if np.any(violated):
        lg2 = np.einsum("bm,bm->b", lg, lg)
        dead = violated & (lg2 <= _LG_FLOOR)
        active = violated & ~dead
        lam = np.zeros_like(d_nom)
        lam[active] = (-slack[active] - d_nom[active]) / lg2[active]
        U = U + lam[:, None] * lg
        infeasible = dead
    return U, infeasible


def check_cbf_constraint(policy: Policy, sys: ControlSystem, bar: BarrierProblem,
                         x, tol: float = 1e-9) -> bool:
    """True iff the post-filter input satisfies the rate constraint at x.

    Raises ``InfeasibilityError`` where the filter has no admissible input.
    """
    if policy.kind != "zero_cbf":
        raise ValueError("check_cbf_constraint requires a zero_cbf policy")
    X = np.asarray(x, dtype=float)[None, :]
    U, infeasible = closed_loop_control_batch(policy, sys, bar, X)
    if infeasible[0]:
        raise InfeasibilityError(X[0])
    slack = policy.rate_at(bar.phi_at(X))
    return bool(d_phi_batch(sys, bar, X, U)[0] >= -slack[0] - tol)


def validate_barrier(bar: BarrierProblem, probes, rel_tol: float = 1e-5,
                     sym_tol: float = 1e-12, level_band: float | None = None) -> None:
    """Check derivative consistency of a barrier at probe states.

    Verifies Hessian symmetry, agreement of the supplied gradient with
    central finite differences of phi, and a non-vanishing gradient at
    probes lying within ``level_band`` of the safe set's boundary
    ``phi = 0``.  Raises ValueError on the first violation.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    phi = bar.phi_at(probes)
    if level_band is None:
        level_band = 1e-2 * (1.0 + float(np.max(np.abs(phi))))
    # Checked probe by probe, so the first violation in probe order is raised.
    for x, p, h, g, g_fd in zip(probes, phi, bar.hess_at(probes), bar.grad_at(probes),
                                fd_gradient_batch(bar.phi, probes)):
        scale = max(1.0, float(np.max(np.abs(h))))
        if np.max(np.abs(h - h.T)) > sym_tol * scale:
            raise ValueError(f"Hessian not symmetric at {x.tolist()}")
        denom = max(float(np.linalg.norm(g_fd)), 1e-12)
        if np.linalg.norm(g - g_fd) / denom > rel_tol:
            raise ValueError(f"gradient inconsistent with phi at {x.tolist()}")
        if abs(float(p)) <= level_band and np.linalg.norm(g) < 1e-8:
            raise ValueError(f"gradient vanishes on the level set near {x.tolist()}")
