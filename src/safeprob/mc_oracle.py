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

On Linux the blocks run in up to one forked worker process per available
CPU, and in the calling process otherwise (one block or one CPU, no
``fork``, or a daemonic caller); the bytes do not depend on the worker
count.  Each process holds one block's noise at a time.  Workers need
``fork``: Python 3.12 and later warn when a process with running threads
forks.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
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


def _exclude(newly: np.ndarray, flag: np.ndarray, alive: np.ndarray,
             *pending: np.ndarray) -> None:
    """Flag the ``newly`` excluded paths and stop them recording."""
    if np.any(newly):
        flag[newly] = True
        alive &= ~newly
        for mask in pending:
            mask &= alive


def _record_down_crossing(before: np.ndarray, after: np.ndarray, level: float,
                          pending: np.ndarray, times: np.ndarray, t0: float, dt: float) -> None:
    """Record the first down-crossings of ``level`` in a step, interpolated
    linearly, and clear their pending flags.  An up-crossing is the
    down-crossing of the negated values: negation is exact."""
    hit = (after <= level) & pending
    if np.any(hit):
        denom = before[hit] - after[hit]
        frac = np.where(denom > 0, (before[hit] - level) / np.where(denom > 0, denom, 1.0), 1.0)
        times[hit] = t0 + dt * np.clip(frac, 0.0, 1.0)
        pending[hit] = False


class _BlockSimulator:
    """Simulates one block of paths, ``(start, count)``, at a time.

    A call returns the block's (min_phi, max_phi, exit_time, entry_time,
    diverged, infeasible).  The noise buffer, of the largest block's size,
    is allocated at the first call and filled again for every later block,
    so a process holds one block's noise at a time.
    """

    def __init__(self, sys: ControlSystem, bar: BarrierProblem, policy: Policy,
                 x0: np.ndarray, phi0: float, level: float, seed: int, n_steps: int,
                 dt: float, size: int):
        self.models = sys, bar, policy
        self.x0, self.phi0, self.level, self.seed = x0, phi0, level, seed
        self.n_steps, self.dt, self.size = n_steps, dt, size
        self.buffer = None

    def __call__(self, block: tuple[int, int]) -> tuple[np.ndarray, ...]:
        start, count = block
        sys, bar, policy = self.models
        phi0, level, n_steps, dt = self.phi0, self.level, self.n_steps, self.dt
        sqdt = np.sqrt(dt)
        if self.buffer is None:
            self.buffer = np.empty((self.size, n_steps, sys.k))
        noise = _path_noise(self.seed, start, count, n_steps, sys.k, out=self.buffer[:count])
        x = np.tile(self.x0, (count, 1))
        phi = np.full(count, phi0)
        alive = np.ones(count, dtype=bool)
        b_min, b_max = np.full(count, phi0), np.full(count, phi0)
        b_exit = np.full(count, 0.0 if phi0 <= level else np.nan)
        b_entry = np.full(count, 0.0 if phi0 >= level else np.nan)
        diverged = np.zeros(count, dtype=bool)
        infeasible_flag = np.zeros(count, dtype=bool)
        # Alive paths whose exit/entry is still to be recorded.
        exit_pending, entry_pending = np.isnan(b_exit), np.isnan(b_entry)

        # Diverging paths legitimately overflow before they are caught and
        # flagged below; keep the arithmetic quiet.
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(n_steps):
                u, infeasible = closed_loop_control_batch(policy, sys, bar, x)
                _exclude(infeasible & alive, infeasible_flag, alive,
                         exit_pending, entry_pending)
                drift = sys.f_at(x) + np.einsum("bim,bm->bi", sys.g_at(x), u)
                xn = x + drift * dt + np.einsum("bik,bk->bi", sys.sigma_at(x),
                                                noise[:, s, :]) * sqdt
                phin = bar.phi_at(xn)
                if not (np.isfinite(xn).all() and np.isfinite(phin).all()):
                    bad = ~(np.all(np.isfinite(xn), axis=1) & np.isfinite(phin))
                    _exclude(bad & alive, diverged, alive, exit_pending, entry_pending)
                # Excluded paths freeze: their phi lies in [min, max] already and
                # nothing pends on them, so the one update below keeps their statistics.
                if not alive.all():
                    frozen = ~alive
                    xn[frozen] = x[frozen]
                    phin[frozen] = phi[frozen]
                # phi0 is on one side of the level, so at most one event pends.
                if exit_pending.any():
                    _record_down_crossing(phi, phin, level, exit_pending, b_exit, s * dt, dt)
                if entry_pending.any():
                    _record_down_crossing(-phi, -phin, -level, entry_pending, b_entry, s * dt, dt)
                np.minimum(b_min, phin, out=b_min)
                np.maximum(b_max, phin, out=b_max)
                x, phi = xn, phin
        return b_min, b_max, b_exit, b_entry, diverged, infeasible_flag


# The block simulator of a worker process, inherited from the parent through
# fork by the pool's initializer; None in every other process.
_worker_simulator = None


def _init_worker(simulator: _BlockSimulator) -> None:
    global _worker_simulator
    _worker_simulator = simulator


def _simulate_in_worker(block: tuple[int, int]) -> tuple[np.ndarray, ...]:
    return _worker_simulator(block)


def _worker_count(n_blocks: int) -> int:
    """Worker processes for ``n_blocks`` blocks: one per available CPU, at most
    one per block, and 1 (run in-process) where workers cannot be forked."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return min(n_blocks, len(os.sched_getaffinity(0)))


def simulate_paths(sys: ControlSystem, bar: BarrierProblem, policy: Policy,
                   x0, cfg: PathConfig, level: float | None = None) -> PathEnsemble:
    """Euler-Maruyama ensemble recording barrier extrema and crossing times.

    The closed loop K(X) is evaluated every step.  Crossing times are
    recorded against ``level`` (the barrier's own level by default).
    Paths that produce non-finite states are flagged and excluded; paths
    reaching states where the zero-CBF filter is infeasible are likewise
    flagged and counted separately.  An excluded path freezes at its last
    state and records nothing more.

    The blocks run in forked worker processes, one per available CPU, or
    in the calling process when there is one worker; the result does not
    depend on which.  The models reach the workers through fork, so they
    need not pickle; only block bounds go out and per-path arrays come back.
    """
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    if not np.all(np.isfinite(x0)):
        raise DataError("initial state must be finite")
    level = bar.level if level is None else float(level)
    phi0 = float(bar.phi_at(x0[None])[0])

    n_steps = max(1, int(round(cfg.horizon / cfg.dt)))
    per_path_bytes = 8 * n_steps * sys.k
    block = max(64, min(BLOCK_SIZE, int(_BLOCK_BYTES // max(per_path_bytes, 1))))

    # Even out the blocks so that every worker runs as many of them.
    n = cfg.n_paths
    workers = _worker_count(math.ceil(n / block))
    size = math.ceil(n / (workers * math.ceil(n / (block * workers))))
    blocks = [(start, min(size, n - start)) for start in range(0, n, size)]
    simulator = _BlockSimulator(sys, bar, policy, x0, phi0, level, cfg.seed, n_steps,
                                cfg.horizon / n_steps, size)
    if workers == 1:
        parts = list(map(simulator, blocks))
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker, initargs=(simulator,)) as pool:
            parts = list(pool.map(_simulate_in_worker, blocks))
    min_phi, max_phi, exit_time, entry_time, diverged, infeasible = (
        np.concatenate(column) for column in zip(*parts))

    return PathEnsemble(config=cfg, level=level, x0=x0, phi0=phi0,
                        min_phi=min_phi, max_phi=max_phi,
                        exit_time=exit_time, entry_time=entry_time,
                        excluded=diverged | infeasible,
                        n_diverged=int(diverged.sum()),
                        n_infeasible=int(infeasible.sum()))


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


def _ok_values(ens: PathEnsemble, values: np.ndarray) -> np.ndarray:
    """``values`` of the paths not excluded; DataError when none is left."""
    if not np.any(ens.ok):
        raise DataError("all paths were excluded; nothing to estimate")
    return values[ens.ok]


def empirical_ccdf_min(ens: PathEnsemble, levels, confidence: float = 0.95
                       ) -> EmpiricalDistribution:
    """P(min of phi over [0,T] >= level) on the given level grid."""
    samples = np.sort(_ok_values(ens, ens.min_phi))
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    counts = samples.size - np.searchsorted(samples, levels, side="left")
    return EmpiricalDistribution("min_ccdf", samples, samples.size, 0, confidence,
                                 levels, counts / samples.size)


def empirical_cdf_max(ens: PathEnsemble, levels, confidence: float = 0.95
                      ) -> EmpiricalDistribution:
    """P(max of phi over [0,T] < level) on the given level grid."""
    samples = np.sort(_ok_values(ens, ens.max_phi))
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    counts = np.searchsorted(samples, levels, side="left")
    return EmpiricalDistribution("max_cdf", samples, samples.size, 0, confidence,
                                 levels, counts / samples.size)


def _event_cdf(kind: str, obs: np.ndarray, grid, confidence: float) -> EmpiricalDistribution:
    events = obs[~np.isnan(obs)]
    n_total = obs.size
    n_censored = n_total - events.size
    samples = np.sort(events)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    values = np.searchsorted(samples, grid, side="right") / n_total
    return EmpiricalDistribution(kind, samples, n_total, n_censored, confidence, grid, values)


def empirical_cdf_exit(ens: PathEnsemble, times, confidence: float = 0.95
                       ) -> EmpiricalDistribution:
    """P(first crossing below the level <= t) on the given time grid."""
    return _event_cdf("exit_cdf", _ok_values(ens, ens.exit_time), times, confidence)


def empirical_cdf_entry(ens: PathEnsemble, times, confidence: float = 0.95
                        ) -> EmpiricalDistribution:
    """P(first crossing above the level <= t) on the given time grid."""
    return _event_cdf("entry_cdf", _ok_values(ens, ens.entry_time), times, confidence)


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
