"""Correctness checks of the benchmark, independent of the code they check.

Every reference here is computed by the benchmark itself: the closed-form
first-passage law of a drifted Brownian motion (written with
``scipy.special.ndtr``, not taken from ``safeprob``), the discrete-monitoring
shift of Broadie, Glasserman & Kou (Math. Finance 7, 1997), the
Dvoretzky-Kiefer-Wolfowitz band, and properties every distribution curve must
have (values in [0, 1], monotone in time, a kind plus its complement equal to
one).  Each ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, zeta

# Largest allowed gap between a 1D PDE curve and the closed-form law.
CLOSED_FORM_TOL = 5e-3
# Largest allowed |kind + complement - 1|.
COMPLEMENT_TOL = 1e-6
# Slack for values outside [0, 1] and for wrong-direction steps in time.
RANGE_TOL = 1e-8
MONOTONE_TOL = 1e-8

# beta = -zeta(1/2) / sqrt(2 pi) = 0.5826...: monitoring a Brownian path only
# at steps of dt sees a barrier that sits beta * sigma * sqrt(dt) further away.
BGK_BETA = float(-zeta(0.5) / math.sqrt(2.0 * math.pi))


def first_passage_cdf(x0: float, drift: float, vol: float, level: float, t) -> np.ndarray:
    """P(first time X hits ``level`` <= t) for X = x0 + drift t + vol W.

    With gap d = |x0 - level| and nu the drift component towards the level,
    P = Phi((nu t - d) / (vol sqrt t)) + exp(2 nu d / vol^2) Phi((-nu t - d) / (vol sqrt t)).
    """
    t = np.asarray(t, dtype=float)
    d = abs(x0 - level)
    nu = drift if level > x0 else -drift
    if d == 0.0:
        return np.ones_like(t)
    out = np.zeros_like(t)
    pos = t > 0
    s = vol * np.sqrt(t[pos])
    tp = t[pos]
    out[pos] = ndtr((nu * tp - d) / s) + math.exp(2.0 * nu * d / vol**2) * ndtr((-nu * tp - d) / s)
    return out


def dkw_half_width(n: int, confidence: float = 0.95) -> float:
    """Half-width of the DKW band of an n-sample empirical CDF."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def sup_gap(a, b) -> float:
    """Largest absolute difference of two curves on a common grid."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"curves differ in shape: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def curve_shape_failures(name: str, values, increasing: bool) -> list:
    """Values in [0, 1] and monotone in time along the last axis."""
    v = np.asarray(values, dtype=float)
    out = []
    if v.min() < -RANGE_TOL or v.max() > 1.0 + RANGE_TOL:
        out.append(f"{name}: values leave [0, 1] (min {v.min():.3e}, max {v.max():.3e})")
    steps = np.diff(v, axis=-1)
    worst = -steps.min() if increasing else steps.max()
    if steps.size and worst > MONOTONE_TOL:
        direction = "decreases" if increasing else "increases"
        out.append(f"{name}: curve {direction} in time by {worst:.3e}")
    return out


def check_closed_form(name: str, times, values, x0: float, drift: float, vol: float,
                      level: float, tol: float = CLOSED_FORM_TOL) -> tuple[list, float]:
    """A 1D first-passage curve against the closed form; returns (failures, gap)."""
    gap = sup_gap(values, first_passage_cdf(x0, drift, vol, level, times))
    fails = curve_shape_failures(name, values, increasing=True)
    if not gap <= tol:
        fails.append(f"{name}: gap to the closed form {gap:.3e} > {tol:.1e}")
    return fails, gap


def mc_exit_bracket(x0: float, drift: float, vol: float, level: float, t: float,
                    dt: float, n_paths: int, confidence: float = 0.95) -> tuple[float, float]:
    """Interval that a discretely monitored MC estimate of P(exit <= t) must hit.

    Low end: the closed form with the level moved away by BGK_BETA vol sqrt(dt),
    minus the DKW band.  High end: the unshifted closed form plus the band.
    """
    shift = BGK_BETA * vol * math.sqrt(dt)
    away = level - shift if x0 > level else level + shift
    band = dkw_half_width(n_paths, confidence)
    lo = float(first_passage_cdf(x0, drift, vol, away, [t])[0]) - band
    hi = float(first_passage_cdf(x0, drift, vol, level, [t])[0]) + band
    return lo, hi


def check_mc_exit(p_mc: float, x0: float, drift: float, vol: float, level: float,
                  t: float, dt: float, n_paths: int, confidence: float = 0.95) -> list:
    lo, hi = mc_exit_bracket(x0, drift, vol, level, t, dt, n_paths, confidence)
    if lo <= p_mc <= hi:
        return []
    return [f"MC P(exit <= {t}) = {p_mc:.4f} outside [{lo:.4f}, {hi:.4f}]"]


def check_validate_report(report: dict) -> list:
    """The CLI's own validation report must pass every check."""
    if report.get("all_pass") is True:
        return []
    bad = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
    return [f"validate report failed: {', '.join(bad) or 'no checks'}"]


def check_pde_pair(name: str, event_cdf, complement, ref_cdf, ks_tol: float) -> tuple[list, float]:
    """A PDE exit CDF and its invariance complement against an MC reference.

    ``event_cdf`` and ``complement`` are (states, times) arrays; ``ref_cdf``
    the reference exit CDF on the same grid.  Returns (failures, KS gap).
    """
    event_cdf = np.atleast_2d(event_cdf)
    complement = np.atleast_2d(complement)
    ref_cdf = np.atleast_2d(ref_cdf)
    fails = curve_shape_failures(f"{name} exit_cdf", event_cdf, increasing=True)
    fails += curve_shape_failures(f"{name} invariance_ccdf", complement, increasing=False)
    comp = sup_gap(event_cdf + complement, np.ones_like(event_cdf))
    if not comp <= COMPLEMENT_TOL:
        fails.append(f"{name}: |exit + invariance - 1| = {comp:.3e} > {COMPLEMENT_TOL:.0e}")
    ks = max(sup_gap(event_cdf, ref_cdf), sup_gap(1.0 - complement, ref_cdf))
    if not ks <= ks_tol:
        fails.append(f"{name}: KS to the MC reference {ks:.4f} > {ks_tol}")
    return fails, ks
