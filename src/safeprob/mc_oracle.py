"""Independent validation of the PDE distributions.

Euler-Maruyama closed-loop simulation with counter-based per-path noise
streams, empirical distribution estimates with Dvoretzky-Kiefer-Wolfowitz
confidence bands, and closed-form first-passage references for 1D
constant-coefficient systems.

Per-path noise is drawn from a Philox stream keyed by (seed, path index),
so ensembles are bit-reproducible for a fixed seed regardless of how the
paths are blocked or scheduled.  Each block of paths builds one Philox
generator and re-keys it per path, which draws exactly the per-path
streams.  Crossing times are refined by linear interpolation of the
barrier value inside the crossing step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DataError
from .system_model import BarrierProblem, ControlSystem, Policy, closed_loop_control_batch

# Paths are simulated in blocks of at most BLOCK_SIZE paths, and per-block
# noise buffers are capped near _BLOCK_BYTES bytes; the block partition
# never affects results, only memory.
BLOCK_SIZE = 4096
_BLOCK_BYTES = 512_000_000


@dataclass(frozen=True)
class PathConfig:
    """Simulation controls: step, horizon, ensemble size, seed.

    Results depend on (seed, dt, horizon, n_paths) alone.
    """

    dt: float
    horizon: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.dt <= 0:
            raise DataError("dt must be positive")
        if self.dt > self.horizon:
            raise DataError("dt must not exceed the horizon")
        if self.n_paths < 1:
            raise DataError("n_paths must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise DataError("seed must fit an unsigned 64-bit integer")


@dataclass
class PathEnsemble:
    """Per-path statistics of a closed-loop simulation.

    Crossing times are NaN when the event did not occur by the horizon
    (censored).  ``excluded`` marks paths dropped for divergence or filter
    infeasibility; statistics must ignore them.
    """

    config: PathConfig
    level: float
    x0: np.ndarray
    phi0: float
    min_phi: np.ndarray
    max_phi: np.ndarray
    exit_time: np.ndarray
    entry_time: np.ndarray
    excluded: np.ndarray
    n_diverged: int
    n_infeasible: int

    @property
    def ok(self) -> np.ndarray:
        return ~self.excluded

    @property
    def n_ok(self) -> int:
        return int(np.count_nonzero(self.ok))


def _path_noise(seed: int, first: int, count: int, n_steps: int, k: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Stacked per-path noise, shape (count, n_steps, k).

    Path ``first + i`` draws ``standard_normal((n_steps, k))`` from a
    Philox stream with key ``[seed, first + i]`` and counter 0.  One
    generator serves the whole block: it is re-keyed through its ``state``
    setter for each path, which resets the counter and the output buffer,
    so each path's draws are exactly those of a fresh generator.  The
    draws fill ``out`` (C-contiguous, of that shape) when it is given, a
    new array otherwise.
    """
    if out is None:
        out = np.empty((count, n_steps, k))
    key = np.array([seed, first], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty buffer, no cached 32-bit half
    state["state"]["key"] = key
    for i in range(count):
        key[1] = first + i  # ``state`` holds ``key``, so this re-keys it
        bitgen.state = state
        gen.standard_normal(out=out[i])
    return out


def simulate_paths(sys: ControlSystem, bar: BarrierProblem, policy: Policy,
                   x0, cfg: PathConfig, level: float | None = None) -> PathEnsemble:
    """Euler-Maruyama ensemble recording barrier extrema and crossing times.

    The closed loop K(X) is evaluated every step.  Crossing times are
    recorded against ``level`` (the barrier's own level by default).
    Paths that produce non-finite states are flagged and excluded; paths
    reaching states where the zero-CBF filter is infeasible are likewise
    flagged and counted separately.
    """
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    if not np.all(np.isfinite(x0)):
        raise DataError("initial state must be finite")
    level = bar.level if level is None else float(level)
    phi0 = float(bar.phi_at(x0[None])[0])

    n_steps = max(1, int(round(cfg.horizon / cfg.dt)))
    dt = cfg.horizon / n_steps
    sqdt = np.sqrt(dt)

    per_path_bytes = 8 * n_steps * sys.k
    block = max(64, min(BLOCK_SIZE, int(_BLOCK_BYTES // max(per_path_bytes, 1))))

    n = cfg.n_paths
    min_phi = np.full(n, phi0)
    max_phi = np.full(n, phi0)
    exit_time = np.full(n, np.nan)
    entry_time = np.full(n, np.nan)
    diverged = np.zeros(n, dtype=bool)
    infeasible_flag = np.zeros(n, dtype=bool)
    if phi0 <= level:
        exit_time[:] = 0.0
    if phi0 >= level:
        entry_time[:] = 0.0

    # One noise buffer serves every block; the last one fills a leading slice.
    buffer = np.empty((min(block, n), n_steps, sys.k))
    for start in range(0, n, block):
        count = min(block, n - start)
        noise = _path_noise(cfg.seed, start, count, n_steps, sys.k, out=buffer[:count])
        x = np.tile(x0, (count, 1))
        phi = np.full(count, phi0)
        alive = np.ones(count, dtype=bool)
        b_min = min_phi[start:start + count]
        b_max = max_phi[start:start + count]
        b_exit = exit_time[start:start + count]
        b_entry = entry_time[start:start + count]

        # Alive paths whose exit/entry is still to be recorded.  While every
        # path of the block is alive, the step skips the ``alive`` masking.
        exit_pending = np.isnan(b_exit)
        entry_pending = np.isnan(b_entry)
        all_alive = True

        # Diverging paths legitimately overflow before they are caught and
        # flagged below; keep the arithmetic quiet.
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(n_steps):
                u, infeasible = closed_loop_control_batch(policy, sys, bar, x)
                newly_inf = infeasible & alive
                if np.any(newly_inf):
                    infeasible_flag[start:start + count][newly_inf] = True
                    alive &= ~newly_inf
                    exit_pending &= alive
                    entry_pending &= alive
                    all_alive = False
                    x[newly_inf] = x0
                drift = sys.f_at(x) + np.einsum("bim,bm->bi", sys.g_at(x), u)
                xn = x + drift * dt + np.einsum("bik,bk->bi", sys.sigma_at(x),
                                                noise[:, s, :]) * sqdt
                phin = bar.phi_at(xn)
                if not (np.isfinite(xn).all() and np.isfinite(phin).all()):
                    bad = (~np.all(np.isfinite(xn), axis=1) | ~np.isfinite(phin)) & alive
                    if np.any(bad):
                        diverged[start:start + count][bad] = True
                        alive &= ~bad
                        exit_pending &= alive
                        entry_pending &= alive
                        all_alive = False
                        xn[bad] = x0
                        phin[bad] = phi0
                t_prev = s * dt
                down = (phin <= level) & exit_pending
                if np.any(down):
                    denom = phi[down] - phin[down]
                    frac = np.where(denom > 0, (phi[down] - level) / np.where(denom > 0, denom, 1.0), 1.0)
                    b_exit[down] = t_prev + dt * np.clip(frac, 0.0, 1.0)
                    exit_pending[down] = False
                up = (phin >= level) & entry_pending
                if np.any(up):
                    denom = phin[up] - phi[up]
                    frac = np.where(denom > 0, (level - phi[up]) / np.where(denom > 0, denom, 1.0), 1.0)
                    b_entry[up] = t_prev + dt * np.clip(frac, 0.0, 1.0)
                    entry_pending[up] = False
                if all_alive:
                    np.minimum(b_min, phin, out=b_min)
                    np.maximum(b_max, phin, out=b_max)
                    x, phi = xn, phin
                else:
                    np.minimum(b_min, np.where(alive, phin, np.inf), out=b_min)
                    np.maximum(b_max, np.where(alive, phin, -np.inf), out=b_max)
                    x = np.where(alive[:, None], xn, x)
                    phi = np.where(alive, phin, phi)

    excluded = diverged | infeasible_flag
    return PathEnsemble(config=cfg, level=level, x0=x0, phi0=phi0,
                        min_phi=min_phi, max_phi=max_phi,
                        exit_time=exit_time, entry_time=entry_time,
                        excluded=excluded,
                        n_diverged=int(diverged.sum()),
                        n_infeasible=int(infeasible_flag.sum()))


@dataclass(frozen=True)
class CdfTable:
    """A distribution tabulated on an evaluation grid."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.points.shape != self.values.shape or self.points.ndim != 1:
            raise DataError("a tabulated CDF needs matching 1D points and values")


@dataclass
class EmpiricalDistribution:
    """Empirical estimate with censoring count and a DKW band."""

    kind: str
    samples: np.ndarray
    n_total: int
    n_censored: int
    confidence: float
    grid: np.ndarray
    values: np.ndarray

    @property
    def band(self) -> float:
        """DKW half-width: sqrt(ln(2/delta) / (2 N)) at delta = 1 - confidence."""
        delta = 1.0 - self.confidence
        return float(np.sqrt(np.log(2.0 / delta) / (2.0 * self.n_total)))

    @property
    def table(self) -> CdfTable:
        return CdfTable(self.grid, self.values)


def _finish(kind: str, samples: np.ndarray, n_total: int, n_censored: int,
            grid, values, confidence: float) -> EmpiricalDistribution:
    return EmpiricalDistribution(kind=kind, samples=np.sort(samples),
                                 n_total=n_total, n_censored=n_censored,
                                 confidence=confidence,
                                 grid=np.asarray(grid, dtype=float),
                                 values=np.asarray(values, dtype=float))


def _ok_or_raise(ens: PathEnsemble) -> np.ndarray:
    ok = ens.ok
    if not np.any(ok):
        raise DataError("all paths were excluded; nothing to estimate")
    return ok


def empirical_ccdf_min(ens: PathEnsemble, levels, confidence: float = 0.95
                       ) -> EmpiricalDistribution:
    """P(min of phi over [0,T] >= level) on the given level grid."""
    ok = _ok_or_raise(ens)
    samples = np.sort(ens.min_phi[ok])
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    counts = samples.size - np.searchsorted(samples, levels, side="left")
    return _finish("min_ccdf", samples, samples.size, 0, levels,
                   counts / samples.size, confidence)


def empirical_cdf_max(ens: PathEnsemble, levels, confidence: float = 0.95
                      ) -> EmpiricalDistribution:
    """P(max of phi over [0,T] < level) on the given level grid."""
    ok = _ok_or_raise(ens)
    samples = np.sort(ens.max_phi[ok])
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    counts = np.searchsorted(samples, levels, side="left")
    return _finish("max_cdf", samples, samples.size, 0, levels,
                   counts / samples.size, confidence)


def _event_cdf(kind: str, times_obs: np.ndarray, ok: np.ndarray, grid,
               confidence: float) -> EmpiricalDistribution:
    obs = times_obs[ok]
    events = obs[~np.isnan(obs)]
    n_total = obs.size
    n_censored = n_total - events.size
    samples = np.sort(events)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    values = np.searchsorted(samples, grid, side="right") / n_total
    return _finish(kind, samples, n_total, n_censored, grid, values, confidence)


def empirical_cdf_exit(ens: PathEnsemble, times, confidence: float = 0.95
                       ) -> EmpiricalDistribution:
    """P(first crossing below the level <= t) on the given time grid."""
    return _event_cdf("exit_cdf", ens.exit_time, _ok_or_raise(ens), times, confidence)


def empirical_cdf_entry(ens: PathEnsemble, times, confidence: float = 0.95
                        ) -> EmpiricalDistribution:
    """P(first crossing above the level <= t) on the given time grid."""
    return _event_cdf("entry_cdf", ens.entry_time, _ok_or_raise(ens), times, confidence)


def analytic_first_passage(x0: float, drift: float, vol: float, level: float, t):
    """First-passage CDF of a 1D constant-coefficient diffusion.

    Returns P(tau_level <= t) for X = x0 + drift*t + vol*W hitting
    ``level`` from either side.  Vectorized over ``t``.
    """
    if vol <= 0:
        raise ValueError("vol must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if x0 == level:
        out = np.ones_like(t)
        return float(out) if out.ndim == 0 else out
    d = abs(x0 - level)
    # Hitting a lower level flips the sign of the drift relative to the
    # gap; both cases reduce to an up-crossing of gap d.
    mu = -drift if x0 > level else drift
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = vol * np.sqrt(t)
        a = ndtr(np.where(t > 0, (mu * t - d) / np.where(t > 0, sq, 1.0), -np.inf))
        b = np.exp(np.clip(2.0 * mu * d / vol**2, -745.0, 709.0)) * \
            ndtr(np.where(t > 0, (-mu * t - d) / np.where(t > 0, sq, 1.0), -np.inf))
    out = np.where(t > 0, a + b, 0.0)
    return float(out) if out.ndim == 0 else np.asarray(out)


def ks_distance(a: CdfTable, b: CdfTable) -> float:
    """Sup-norm distance between two tabulations on a common grid."""
    if a.points.shape != b.points.shape or not np.allclose(a.points, b.points,
                                                           rtol=0.0, atol=1e-12):
        raise DataError("tabulated CDFs are not on a common evaluation grid")
    return float(np.max(np.abs(a.values - b.values)))
