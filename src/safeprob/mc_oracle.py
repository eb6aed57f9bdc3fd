"""Independent validation of the PDE distributions.

Euler-Maruyama closed-loop simulation with counter-based per-path noise
streams, empirical distribution estimates with Dvoretzky-Kiefer-Wolfowitz
confidence bands, and closed-form first-passage references for 1D
constant-coefficient systems.

Per-path noise is drawn from a Philox stream keyed by (seed, path index),
so ensembles are bit-reproducible for a fixed seed regardless of how the
paths are blocked or scheduled.  Each block of paths builds one Philox
generator and re-keys it per path, which draws exactly the per-path
streams.

Between two steps the barrier is not watched at step ends alone: each
step samples the extremum of the Brownian bridge of phi between its end
values (Glasserman, *Monte Carlo Methods in Financial Engineering*, 2004,
section 6.4; Gobet, Stoch. Proc. Appl. 87, 2000), with one uniform per
path and step from the path's key at counter word 2 = 1.  The running
minimum and maximum take these extrema, and a crossing is recorded when
the extremum reaches the level.  A crossing whose step ends past the
level keeps its linearly interpolated time; one seen by the bridge alone
is timed at the step end.  For a 1D constant-coefficient system the
extrema are exact, so the curves are exact at multiples of the step.

The paths run in contiguous shares, one forked worker each
(``safeprob.workers``, as the PDE's boundary probe does), or in the calling
process given one share; each share runs in the fewest even blocks whose
draws fit a byte budget, and the bytes depend on neither.  Each process
holds one block's draws at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DataError, require_finite
from .system_model import BarrierProblem, ControlSystem, Policy, closed_loop_control_batch
from .workers import concurrently, worker_cpus

# An ensemble runs in one worker share per WORKER_PATHS paths or part of
# them, up to one per CPU, and one under WORKER_PATHS paths stays in the
# calling process.  Each share runs in the fewest even blocks whose draws fit
# BLOCK_BYTES, but no block is cut below MIN_BLOCK paths, so a process holds
# at most BLOCK_BYTES of draws, or MIN_BLOCK paths' worth.  Fewer, larger
# blocks take fewer numpy calls per path step.  The partition never affects
# results, only time and memory.  A block's bridge draws are made
# BRIDGE_STEPS steps at a time (a multiple of 4), so they add at most 2 kB a
# path whatever the horizon.
WORKER_PATHS = 4096
BLOCK_BYTES = 128_000_000
MIN_BLOCK = 64
BRIDGE_STEPS = 256
# The confidence of every DKW band (Massart, Ann. Probab. 18, 1990).
DKW_CONFIDENCE = 0.95


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
        require_finite(dt=self.dt, horizon=self.horizon)
        if self.dt <= 0:
            raise DataError("dt must be positive")
        if self.dt > self.horizon:
            raise DataError("dt must not exceed the horizon")
        if self.n_paths < 1:
            raise DataError("n_paths must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise DataError("seed must fit an unsigned 64-bit integer")

    @property
    def n_steps(self) -> int:
        """Steps a path takes, each ``horizon / n_steps`` long."""
        return max(1, int(round(self.horizon / self.dt)))


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


def _keyed_draws(seed: int, first: int, count: int, counter, fill) -> None:
    """Call ``fill(gen, i)`` for ``i < count`` with ``gen`` drawing from the
    Philox stream with key ``[seed, first + i]`` at ``counter``.

    One generator serves the whole block: it is re-keyed through its
    ``state`` setter for each path, which resets the counter and the output
    buffer, so each path's draws are exactly those of a fresh generator.
    """
    key = [int(seed), first]
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # Empty buffer, no cached 32-bit half.  Plain ints set about twice as
    # fast as the getter's uint64 arrays.
    state = {**bitgen.state, "state": {"counter": list(counter), "key": key},
             "buffer": [0, 0, 0, 0]}
    for i in range(count):
        key[1] = first + i  # ``state`` holds ``key``, so this re-keys it
        bitgen.state = state
        fill(gen, i)


def _path_noise(seed: int, first: int, count: int, n_steps: int, k: int) -> np.ndarray:
    """Stacked per-path noise, shape (count, n_steps, k).

    Path ``first + i`` draws ``standard_normal((n_steps, k))`` from a
    Philox stream with key ``[seed, first + i]`` and counter 0.
    """
    out = np.empty((count, n_steps, k))
    _keyed_draws(seed, first, count, (0, 0, 0, 0),
                 lambda gen, i: gen.standard_normal(out=out[i]))
    return out


def _path_exponentials(seed: int, first: int, count: int, first_step: int,
                       out: np.ndarray) -> np.ndarray:
    """Bridge draws ``-ln(1 - U)`` of steps ``first_step`` on, a row of ``out``
    per path.

    Path ``first + i``'s uniforms U are ``random`` draws from the Philox
    stream with key ``[seed, first + i]`` and counter word 2 set to 1,
    which its normals never reach.  ``standard_exponential(method="inv")``
    takes each U from that stream and applies the C library's ``log1p``;
    numpy's ``np.log1p`` may differ in the last bit with the host's SIMD
    width.  A draw takes one 64-bit output and the counter advances once
    per four, so a row can start at any step that is a multiple of 4.
    """
    _keyed_draws(seed, first, count, (first_step // 4, 0, 1, 0),
                 lambda gen, i: gen.standard_exponential(out=out[i], method="inv"))
    return out


def _exclude(newly: np.ndarray, flag: np.ndarray, alive: np.ndarray,
             pending: np.ndarray) -> None:
    """Flag the ``newly`` excluded paths and stop them recording."""
    if np.any(newly):
        flag[newly] = True
        alive &= ~newly
        pending &= alive


def _bridge_extrema(before: np.ndarray, after: np.ndarray,
                    spread: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sampled Brownian-bridge minimum and maximum of phi over a step.

    With end values a, b, variance rate s^2 and a uniform U, the bridge
    minimum is ``(a + b - sqrt((b - a)^2 - 2 s^2 dt ln(1 - U))) / 2`` and the
    mirrored maximum ``a + b`` less that.  ``spread`` is
    ``-s^2 dt ln(1 - U) / 2``, and the minimum is taken as ``min(a, b)`` less
    ``spread / (sqrt((b - a)^2 / 4 + spread) + |b - a| / 2)``, a form free of
    cancellation that is exactly ``min(a, b)`` when ``spread`` is 0.
    """
    half_gap = 0.5 * np.abs(after - before)
    root = np.sqrt(half_gap * half_gap + spread) + half_gap
    beyond = spread / np.maximum(root, np.finfo(float).tiny)
    return np.minimum(before, after) - beyond, np.maximum(before, after) + beyond


def _record_down_crossing(before: np.ndarray, after: np.ndarray, low: np.ndarray,
                          level: float, pending: np.ndarray, times: np.ndarray,
                          t0: float, dt: float, t_end: float) -> None:
    """Record the first down-crossings of ``level`` in a step, whose lowest
    value is ``low``, and clear their pending flags.  A step that ends at
    or below the level is timed by linear interpolation, one whose bridge
    alone reaches the level at ``t_end``.  An up-crossing is the
    down-crossing of the negated values: negation is exact."""
    hit = (low <= level) & pending
    if np.any(hit):
        b, a = before[hit], after[hit]
        denom = b - a
        frac = np.where(denom > 0, (b - level) / np.where(denom > 0, denom, 1.0), 1.0)
        times[hit] = np.where(a <= level, t0 + dt * np.clip(frac, 0.0, 1.0), t_end)
        pending[hit] = False


def _simulate_block(sys: ControlSystem, bar: BarrierProblem, policy: Policy,
                    x0: np.ndarray, phi0: float, level: float, seed: int, n_steps: int,
                    horizon: float, block: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """The (min_phi, max_phi, passage, diverged, infeasible) of the block
    ``(start, count)`` of paths, whose draws are freed when it returns.

    A path makes one passage: its exit from phi0 above the level, its entry
    from below, recorded as the exit of -phi, and none from the level, where
    ``passage`` is 0.
    """
    start, count = block
    dt = horizon / n_steps
    sqdt = np.sqrt(dt)
    chunk = min(n_steps, BRIDGE_STEPS)
    noise = _path_noise(seed, start, count, n_steps, sys.k)
    bridge = np.empty(count * chunk)
    x = np.tile(x0, (count, 1))
    phi = np.full(count, phi0)
    alive = np.ones(count, dtype=bool)
    b_min, b_max = np.full(count, phi0), np.full(count, phi0)
    passage = np.full(count, 0.0 if phi0 == level else np.nan)
    diverged = np.zeros(count, dtype=bool)
    infeasible_flag = np.zeros(count, dtype=bool)
    # Alive paths whose passage is still to be recorded.
    pending = np.isnan(passage)
    entering = phi0 < level

    # Diverging paths legitimately overflow before they are caught and
    # flagged below; keep the arithmetic quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_steps):
            if s % chunk == 0:
                # The chunk's draws -ln(1 - U), in a C-contiguous view of
                # ``bridge``, scaled by dt / 2: times s^2 they are the
                # bridge's ``spread``.
                width = min(chunk, n_steps - s)
                spreads = _path_exponentials(seed, start, count, s,
                                             bridge[:count * width].reshape(count, width))
                spreads *= 0.5 * dt
            u, infeasible = closed_loop_control_batch(policy, sys, bar, x)
            _exclude(infeasible & alive, infeasible_flag, alive, pending)
            drift = sys.f_at(x) + np.einsum("bim,bm->bi", sys.g_at(x), u)
            sig = sys.sigma_at(x)
            xn = x + drift * dt + np.einsum("bik,bk->bi", sig, noise[:, s, :]) * sqdt
            phin = bar.phi_at(xn)
            # s^2 = |grad phi^T sigma|^2, the variance rate of phi at the step start.
            gs = np.einsum("bi,bik->bk", bar.grad_at(x), sig)
            spread = np.einsum("bk,bk->b", gs, gs) * spreads[:, s % chunk]
            # phin + spread is finite iff both are.
            if not (np.isfinite(xn).all() and np.isfinite(phin + spread).all()):
                bad = ~(np.all(np.isfinite(xn), axis=1) & np.isfinite(phin + spread))
                _exclude(bad & alive, diverged, alive, pending)
            # Excluded paths freeze: their phi lies in [min, max] already and
            # nothing pends on them, so the one update below keeps their statistics.
            if not alive.all():
                frozen = ~alive
                xn[frozen] = x[frozen]
                phin[frozen] = phi[frozen]
                spread[frozen] = 0.0
            low, high = _bridge_extrema(phi, phin, spread)
            if pending.any():
                down = (-phi, -phin, -high, -level) if entering else (phi, phin, low, level)
                _record_down_crossing(*down, pending, passage, s * dt, dt,
                                      min((s + 1) * dt, horizon))
            np.minimum(b_min, low, out=b_min)
            np.maximum(b_max, high, out=b_max)
            x, phi = xn, phin
    return b_min, b_max, passage, diverged, infeasible_flag


def _block_plan(n_paths: int, per_path_bytes: int,
                cpus: int) -> list[list[tuple[int, int]]]:
    """The blocks ``(start, count)`` of an ensemble whose paths draw
    ``per_path_bytes`` each, in contiguous shares, one per process.

    The share count is fixed before any block size: one share under
    WORKER_PATHS paths, else ``min(cpus, ceil(n_paths / WORKER_PATHS))``.
    Shares and the blocks within a share differ in size by one path at most.
    """
    workers = 1 if n_paths < WORKER_PATHS else min(cpus, math.ceil(n_paths / WORKER_PATHS))
    cap = max(MIN_BLOCK, BLOCK_BYTES // per_path_bytes)
    shares = []
    for w in range(workers):
        lo, hi = w * n_paths // workers, (w + 1) * n_paths // workers
        per = math.ceil((hi - lo) / cap)
        bounds = [lo + i * (hi - lo) // per for i in range(per + 1)]
        shares.append([(a, b - a) for a, b in zip(bounds, bounds[1:])])
    return shares


def simulate_paths(sys: ControlSystem, bar: BarrierProblem, policy: Policy,
                   x0, cfg: PathConfig, level: float = 0.0) -> PathEnsemble:
    """Euler-Maruyama ensemble recording barrier extrema and crossing times,
    both read off each step's sampled Brownian bridge of phi.

    The closed loop K(X) is evaluated every step.  Crossing times are
    recorded against ``level``.  Paths that produce non-finite states are
    flagged and excluded; paths reaching states where the zero-CBF filter
    is infeasible are likewise flagged and counted separately.  An excluded
    path freezes at its last state and records nothing more.

    The paths run in contiguous shares, one forked worker each
    (``safeprob.workers.concurrently``), or in the calling process when
    there is one share (``_block_plan``); the result does not depend on
    which.  A worker that dies raises ``SolverError``.
    """
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    if not np.all(np.isfinite(x0)):
        raise DataError("initial state must be finite")
    level = float(level)
    phi0 = float(bar.finite_phi_at(x0[None], "initial state")[0])

    n, n_steps = cfg.n_paths, cfg.n_steps
    # A path's noise and one chunk of its bridge draws.
    shares = _block_plan(n, 8 * (n_steps * sys.k + min(n_steps, BRIDGE_STEPS)),
                         worker_cpus())
    simulator = functools.partial(_simulate_block, sys, bar, policy, x0, phi0, level,
                                  cfg.seed, n_steps, cfg.horizon)
    if len(shares) == 1:
        parts = list(map(simulator, shares[0]))
    else:
        with concurrently(*(lambda share=share: list(map(simulator, share))
                            for share in shares)) as results:
            parts = [part for share in results() for part in share]
    min_phi, max_phi, passage, diverged, infeasible = (
        np.concatenate(column) for column in zip(*parts))
    # The passage a path cannot make is at 0: it starts past that level.
    exit_time, entry_time = ((passage, np.zeros(n)) if phi0 >= level
                             else (np.zeros(n), passage))

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
    n_total: int
    n_censored: int
    grid: np.ndarray
    values: np.ndarray

    @property
    def band(self) -> float:
        """DKW half-width: sqrt(ln(2/delta) / (2 N)) at delta = 1 - DKW_CONFIDENCE,
        which is 0.050000000000000044, not 0.05."""
        delta = 1.0 - DKW_CONFIDENCE
        return float(np.sqrt(np.log(2.0 / delta) / (2.0 * self.n_total)))

    @property
    def table(self) -> CdfTable:
        return CdfTable(self.grid, self.values)


def _ok_values(ens: PathEnsemble, values: np.ndarray) -> np.ndarray:
    """``values`` of the paths not excluded; DataError when none is left."""
    if not np.any(ens.ok):
        raise DataError("all paths were excluded; nothing to estimate")
    return values[ens.ok]


def empirical_ccdf_min(ens: PathEnsemble, levels) -> EmpiricalDistribution:
    """P(min of phi over [0,T] >= level) on the given level grid."""
    samples = np.sort(_ok_values(ens, ens.min_phi))
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    counts = samples.size - np.searchsorted(samples, levels, side="left")
    return EmpiricalDistribution("min_ccdf", samples.size, 0, levels, counts / samples.size)


def empirical_cdf_max(ens: PathEnsemble, levels) -> EmpiricalDistribution:
    """P(max of phi over [0,T] < level) on the given level grid."""
    samples = np.sort(_ok_values(ens, ens.max_phi))
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    counts = np.searchsorted(samples, levels, side="left")
    return EmpiricalDistribution("max_cdf", samples.size, 0, levels, counts / samples.size)


def _event_cdf(kind: str, obs: np.ndarray, grid) -> EmpiricalDistribution:
    samples = np.sort(obs[~np.isnan(obs)])
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    values = np.searchsorted(samples, grid, side="right") / obs.size
    return EmpiricalDistribution(kind, obs.size, obs.size - samples.size, grid, values)


def empirical_cdf_exit(ens: PathEnsemble, times) -> EmpiricalDistribution:
    """P(first crossing below the level <= t) on the given time grid."""
    return _event_cdf("exit_cdf", _ok_values(ens, ens.exit_time), times)


def empirical_cdf_entry(ens: PathEnsemble, times) -> EmpiricalDistribution:
    """P(first crossing above the level <= t) on the given time grid."""
    return _event_cdf("entry_cdf", _ok_values(ens, ens.entry_time), times)


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
