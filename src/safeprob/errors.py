"""Exception types shared across the package, and its finiteness check."""

from __future__ import annotations

import numpy as np


class SafeProbError(Exception):
    """Base class for package errors."""


class ShapeError(SafeProbError, ValueError):
    """An evaluator or field returned an array of the wrong shape."""


class InfeasibilityError(SafeProbError):
    """The safety filter has no admissible input at a state.

    Raised when the barrier's actuated direction vanishes while the rate
    constraint is violated, so no control can restore it.
    """

    def __init__(self, state, message: str | None = None):
        self.state = np.asarray(state, dtype=float)
        if message is None:
            message = f"safety filter infeasible at state {self.state.tolist()}"
        super().__init__(message)

    def __reduce__(self):
        # Rebuilt from both arguments, so the error survives the trip back
        # from a Monte Carlo worker process.
        return type(self), (self.state, str(self))


class SolverError(SafeProbError):
    """Linear or time-stepping solve failed; carries a residual report."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class DataError(SafeProbError, ValueError):
    """Tabulated data violates a structural precondition (grid mismatch,
    non-monotone table, empty ensemble)."""


def require_finite(**fields) -> None:
    """Raise DataError naming the first field, None aside, holding a NaN or inf."""
    for name, value in fields.items():
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise DataError(f"{name} must be finite")


class ConfigError(SafeProbError, ValueError):
    """Experiment configuration failed schema validation."""

    def __init__(self, message: str, pointer: str | None = None):
        self.reason, self.pointer = message, pointer
        if pointer is not None:
            message = f"{message} (at config key '{pointer}')"
        super().__init__(message)


class DivergenceError(SafeProbError):
    """Too many simulated paths diverged or hit infeasible states."""
