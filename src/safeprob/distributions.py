"""Distribution queries: assembles masked convection-diffusion problems
from a (system, barrier, policy) triple and tabulates the four safety
distributions.

The solves run directly on the state space: for a level ``l`` the
invariance/exit problems live on ``{x : phi(x) >= l}`` and the
convergence/entry problems on ``{x : phi(x) < l}``, with the complement
pinned to the distribution's boundary value.  Queries are reported at the
consistent augmented coordinate ``z = [phi(x), x]``; values of the
augmented-space problem off that manifold are not exposed.

The four kinds share one pipeline and differ only in mask side and
Dirichlet value; the solve starts from 1 minus that value on the mask:

    invariance_ccdf   P(min phi over [0,T] >= l)   super side, pinned 0
    exit_cdf          P(first time phi <= l  <= t) super side, pinned 1
    convergence_cdf   P(max phi over [0,T] < l)    sub side,   pinned 0
    entry_cdf         P(first time phi >= l <= t)  sub side,   pinned 1

The two kinds of a side share mask and generator and their data sum to 1,
so in exact arithmetic their values sum to 1 within horizon times the
solve's ``row_sum_defect``, which bounds the operator's row sums; the
solves' rounding adds to that, 3e-13 at most on the shipped configs.  They
share one assembled problem too: ``_problem`` keeps the mask, drift,
``Sigma`` and axis factors of each (models, grid, level, side, time step)
for every kind, horizon, time grid and state set on it.

Whether the solve box truncates the level set is checked here too, by the
boundary probe: when a box face cuts through the interior, the problem is
re-solved at ``PROBE_COARSEN`` times coarser cells and time step on its own
box and on a box doubled across the cut faces.  Their largest disagreement
at the query states is the ``boundary_sensitivity`` diagnostic, flagged
above ``PROBE_TOLERANCE`` (a flag, never an error).  The probe solves in
one forked worker process while the main march runs, under the rule the
Monte Carlo blocks follow (``safeprob.workers``), and in the calling
process after the march where no worker may be forked; the same code runs
on the same arrays either way, so the bytes do not depend on which.  A
probe error is raised once the march has succeeded, with its type and
message; a march error stops the worker first.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .errors import DataError, InfeasibilityError, require_finite
from .pde_engine import (
    MIN_CELLS,
    FieldSeries,
    GridSampler,
    GridSpec,
    IbvpSpec,
    build_mask,
    sigma_pairs,
    solve_ibvp,
)
from .system_model import BarrierProblem, ControlSystem, Policy, closed_loop_control_batch
from .workers import concurrently


class SafeProbWarning(UserWarning):
    """Non-fatal solver notices (wrong-side queries, trivial masks, states near
    the level set)."""


@dataclass(frozen=True)
class KindSpec:
    """What sets one distribution kind apart from the others.

    ``side`` is the mask side of the level set and ``dirichlet`` the value
    pinned outside it; ``solve_ibvp`` starts the march from
    ``1 - dirichlet`` on the mask, so the two kinds of a side (pinned 0 and
    1) have data summing to 1.  The Dirichlet value doubles as the exact
    result on the wrong side of the level set.  ``increasing`` marks kinds
    whose curve must not decrease in time (the others must not increase),
    and ``event`` the passage time the kind describes.
    """

    side: str
    dirichlet: float
    increasing: bool
    event: str


KIND_TABLE = {
    "invariance_ccdf": KindSpec("super", 0.0, False, "exit"),
    "exit_cdf": KindSpec("super", 1.0, True, "exit"),
    "convergence_cdf": KindSpec("sub", 0.0, False, "entry"),
    "entry_cdf": KindSpec("sub", 1.0, True, "entry"),
}
KINDS = tuple(KIND_TABLE)

# Extra cells padded onto every side of the query box, so the Dirichlet
# region bordering the level set is represented by at least one node layer.
HALO_CELLS = 1
# The boundary probe solves at this factor coarser cells and time step, and
# flags the solve when its two solves disagree by more than PROBE_TOLERANCE
# at a query state.
PROBE_COARSEN = 2
PROBE_TOLERANCE = 1e-3
# Evenly spaced tabulation times over [0, horizon] when a query names none.
TABULATION_TIMES = 101
# A query state is warned about when a pinned node lies within this many cells
# of the state's own cell along every axis: the node-based mask places the level
# set only to a cell, and values this close to it can be off by O(1).
NEAR_LEVEL_CELLS = 2
# Assembly evaluates the models on this many nodes at a time, so its scratch
# does not grow with the grid.
NODE_SLAB = 1 << 14
# Assembled problems kept: a solve's and its boundary probe's two.
PROBLEMS = 3


def tabulation_times(horizon: float, times: np.ndarray | None) -> np.ndarray:
    """The times a query tabulates at: its own, or ``TABULATION_TIMES`` evenly
    spaced over [0, horizon] when it names none."""
    return np.linspace(0.0, horizon, TABULATION_TIMES) if times is None else times


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization controls for a distribution query.

    ``box_lo``/``box_hi``/``cells`` describe the truncation box, padded by
    ``HALO_CELLS`` on every side, and ``dt`` the backward-Euler time step.
    The boundary probe re-solves coarsely on the original and a doubled
    box to expose truncation bias.
    """

    box_lo: tuple
    box_hi: tuple
    cells: tuple
    dt: float
    boundary_probe: bool = True

    def __post_init__(self):
        object.__setattr__(self, "box_lo", tuple(float(v) for v in self.box_lo))
        object.__setattr__(self, "box_hi", tuple(float(v) for v in self.box_hi))
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        require_finite(box_lo=self.box_lo, box_hi=self.box_hi, dt=self.dt)
        if not len(self.box_lo) == len(self.box_hi) == len(self.cells):
            raise DataError("box_lo, box_hi and cells must have equal lengths")
        # The padded grid adds 2 * HALO_CELLS an axis and needs MIN_CELLS.
        for a, c in enumerate(self.cells):
            if c < MIN_CELLS - 2 * HALO_CELLS:
                raise DataError(f"axis {a}: cell count {c} below minimum "
                                f"{MIN_CELLS - 2 * HALO_CELLS}")
        if self.dt <= 0:
            raise DataError("dt must be positive")


@dataclass(frozen=True)
class QuerySpec:
    """One batch query: initial states, level (0, the safe set's boundary, by
    default), horizon, and tabulation times (``tabulation_times`` by default)."""

    states: np.ndarray
    horizon: float
    numerics: NumericsConfig
    level: float = 0.0
    times: np.ndarray | None = None

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        require_finite(states=states, horizon=self.horizon, level=self.level, times=self.times)
        if self.horizon < 0:
            raise DataError("horizon must be >= 0")
        lo = np.asarray(self.numerics.box_lo)
        hi = np.asarray(self.numerics.box_hi)
        if states.shape[1] != lo.shape[0]:
            raise DataError(f"states have dimension {states.shape[1]}, box has {lo.shape[0]}")
        if np.any(states < lo) or np.any(states > hi):
            raise DataError("query states must lie inside the truncation box")
        if self.times is not None:
            t = np.asarray(self.times, dtype=float)
            if t.ndim != 1 or np.any(t < 0) or np.any(t > self.horizon + 1e-12):
                raise DataError("tabulation times must lie in [0, horizon]")
            object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)


@dataclass
class DistributionResult:
    """Tabulated distribution values over (state, time) with diagnostics."""

    kind: str
    states: np.ndarray
    z: np.ndarray
    times: np.ndarray
    level: float
    values: np.ndarray
    diagnostics: dict
    provenance: dict
    series: FieldSeries


def monotonicity_violation(result: DistributionResult) -> float:
    """Largest wrong-direction increment along the time axis (0 if clean)."""
    diffs = np.diff(result.values, axis=1)
    if KIND_TABLE[result.kind].increasing:
        worst = -diffs.min() if diffs.size else 0.0
    else:
        worst = diffs.max() if diffs.size else 0.0
    return float(max(worst, 0.0))


def _padded_grid(numerics: NumericsConfig) -> GridSpec:
    lo, hi, cells = [], [], []
    for a in range(len(numerics.cells)):
        h = (numerics.box_hi[a] - numerics.box_lo[a]) / numerics.cells[a]
        lo.append(numerics.box_lo[a] - HALO_CELLS * h)
        hi.append(numerics.box_hi[a] + HALO_CELLS * h)
        cells.append(numerics.cells[a] + 2 * HALO_CELLS)
    return GridSpec(tuple(lo), tuple(hi), tuple(cells))


def _assemble(sys: ControlSystem, bar: BarrierProblem, policy: Policy,
              grid: GridSpec, level: float, side: str, dt: float) -> IbvpSpec:
    """The problem on ``grid`` for one side of the ``level`` set, posed with
    Dirichlet value 0 over horizon 0 (a solve poses its own with ``with_data``)."""
    mask = build_mask(grid, bar, side, level=level)
    n = grid.ndim
    convection = np.zeros((grid.n_nodes, n))
    interior_idx = np.flatnonzero(mask.ravel())
    for start in range(0, interior_idx.size, NODE_SLAB):
        idx = interior_idx[start:start + NODE_SLAB]
        pts = grid.nodes_at(idx)
        U, infeasible = closed_loop_control_batch(policy, sys, bar, pts)
        if np.any(infeasible):
            bad = pts[np.argmax(infeasible)]
            raise InfeasibilityError(
                bad, f"L_g phi vanishes at interior grid node {bad.tolist()} while the "
                "rate constraint is violated there, so the zero-CBF filter has no "
                "admissible input")
        convection[idx] = sys.f_at(pts) + np.einsum("bim,bm->bi", sys.g_at(pts), U)
    # Sigma's pairs slab by slab; a pair zero so far has no vector yet.
    Sigma = {}
    for start in range(0, grid.n_nodes, NODE_SLAB):
        slab = np.arange(start, min(start + NODE_SLAB, grid.n_nodes))
        for key, pair in sigma_pairs(sys.sigma_at(grid.nodes_at(slab))).items():
            if key in Sigma or np.any(pair):
                Sigma.setdefault(key, np.zeros(grid.n_nodes))[slab] = pair
    return IbvpSpec(grid=grid, interior_mask=mask,
                    convection=convection.reshape(grid.shape + (n,)), sigma=Sigma,
                    dirichlet_value=0.0, horizon=0.0, dt=dt)


# (model ids, grid, level, side, dt) -> (weak references to the three models,
# the assembled spec), least recently used first.
_problems: OrderedDict = OrderedDict()


def _problem(sys: ControlSystem, bar: BarrierProblem, policy: Policy,
             grid: GridSpec, level: float, side: str, dt: float) -> IbvpSpec:
    """The assembled problem of these models on ``grid`` for one side of the
    ``level`` set at time step ``dt``, assembled on its first query.

    Every kind, horizon, time grid and state set on it shares the spec and
    the axis factors it keeps.  ``PROBLEMS`` stay kept, least recently used
    first out, and each only while its three model objects are alive; a
    miss evicts before it assembles, and an assembly that raises keeps nothing.
    """
    models = (sys, bar, policy)
    key = (*map(id, models), grid, level, side, dt)
    entry = _problems.get(key)
    if entry is None:
        while len(_problems) >= PROBLEMS:
            _problems.popitem(last=False)
        spec = _assemble(sys, bar, policy, grid, level, side, dt)

        def drop(_, key=key, problems=_problems):
            problems.pop(key, None)

        # An evicted entry's references die with it, and their callbacks with them.
        entry = _problems[key] = (tuple(weakref.ref(m, drop) for m in models), spec)
    _problems.move_to_end(key)
    return entry[1]


def _probe_grids(grid: GridSpec, mask: np.ndarray) -> tuple[GridSpec, GridSpec] | None:
    """The boundary probe's (coarse, doubled) grids, or None if no face of
    ``grid`` cuts through the interior ``mask``.

    ``coarse`` is the grid's own box at ``PROBE_COARSEN`` times coarser cells;
    ``doubled`` extends each cut face outward by one box width at the same
    spacing.
    """
    cut_lo = [bool(np.any(np.take(mask, 0, axis=a))) for a in range(grid.ndim)]
    cut_hi = [bool(np.any(np.take(mask, -1, axis=a))) for a in range(grid.ndim)]
    if not any(cut_lo + cut_hi):
        return None
    coarse_cells = tuple(max(MIN_CELLS, cells // PROBE_COARSEN) for cells in grid.cells)
    lo, hi, dcells = list(grid.lo), list(grid.hi), list(coarse_cells)
    for a in range(grid.ndim):
        width = grid.hi[a] - grid.lo[a]
        if cut_lo[a]:
            lo[a] -= width
            dcells[a] += coarse_cells[a]
        if cut_hi[a]:
            hi[a] += width
            dcells[a] += coarse_cells[a]
    return (GridSpec(grid.lo, grid.hi, coarse_cells),
            GridSpec(tuple(lo), tuple(hi), tuple(dcells)))


def _near_level_set(grid: GridSpec, mask: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Whether each state has a node outside ``mask`` within ``NEAR_LEVEL_CELLS``
    cells of its own cell, the one it is sampled from, along every axis."""
    # Row 0 of the sampler's corners is each cell's lower corner.
    lower = np.unravel_index(GridSampler(grid, states).index[0], grid.shape)
    return np.array([not mask[tuple(slice(max(i - NEAR_LEVEL_CELLS, 0), i + 2 + NEAR_LEVEL_CELLS)
                                    for i in cell)].all() for cell in zip(*lower)], dtype=bool)


def _probe_sensitivity(coarse: IbvpSpec, doubled: IbvpSpec, points) -> float:
    """Largest disagreement of the two probe solves at ``points`` at the horizon."""
    return float(np.max(np.abs(solve_ibvp(coarse).sample(points)
                               - solve_ibvp(doubled).sample(points))))


def _query_hash(kind: str, q: QuerySpec, level: float) -> str:
    payload = {
        "kind": kind,
        "level": level,
        "horizon": q.horizon,
        "states": np.atleast_2d(q.states).tolist(),
        "times": None if q.times is None else np.asarray(q.times).tolist(),
        "numerics": {
            "box_lo": q.numerics.box_lo, "box_hi": q.numerics.box_hi,
            "cells": q.numerics.cells, "dt": q.numerics.dt,
            # theta 1.0 names the backward-Euler scheme.
            "theta": 1.0, "halo_cells": HALO_CELLS,
        },
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def solve_distribution(kind: str, sys: ControlSystem, bar: BarrierProblem,
                       policy: Policy, q: QuerySpec,
                       config_hash: str | None = None) -> DistributionResult:
    """Tabulate one distribution kind over (state, time)."""
    if kind not in KINDS:
        raise DataError(f"unknown distribution kind {kind!r}; expected one of {KINDS}")
    side, dirichlet = KIND_TABLE[kind].side, KIND_TABLE[kind].dirichlet
    level = float(q.level)
    states = q.states
    phi0 = bar.finite_phi_at(states, "query state")
    on_side = phi0 >= level if side == "super" else phi0 < level
    if not np.all(on_side):
        bad = states[~on_side][0]
        warnings.warn(
            f"{kind}: state {bad.tolist()} lies on the wrong side of level {level}; "
            f"the boundary condition fixes its value to {dirichlet}", SafeProbWarning,
            stacklevel=2)

    def problem(grid: GridSpec, dt: float) -> IbvpSpec:
        return _problem(sys, bar, policy, grid, level, side, dt).with_data(dirichlet, q.horizon)

    grid = _padded_grid(q.numerics)
    spec = problem(grid, q.numerics.dt)
    if spec.interior_mask.all() or not spec.interior_mask.any():
        warnings.warn(
            f"{kind}: the level set does not intersect the solve box; the mask is "
            "trivial and the result degenerates to its initial/boundary data",
            SafeProbWarning, stacklevel=2)
    for x in states[on_side & _near_level_set(grid, spec.interior_mask, states)]:
        warnings.warn(
            f"{kind}: state {x.tolist()} lies within {NEAR_LEVEL_CELLS} cells of level "
            f"{level}; so close to the level set the solve can be off by O(1)",
            SafeProbWarning, stacklevel=2)

    # The probe specs are assembled before the march, so an infeasible probe
    # grid fails first; the probe then solves while the march runs.
    probe = []
    if q.numerics.boundary_probe and q.horizon > 0:
        grids = _probe_grids(grid, spec.interior_mask)
        if grids is not None:
            specs = [problem(g, q.numerics.dt * PROBE_COARSEN) for g in grids]
            probe = [partial(_probe_sensitivity, *specs,
                             states[on_side] if np.any(on_side) else states)]

    with concurrently(*probe) as probe_results:
        series = solve_ibvp(spec, snapshot_times=tabulation_times(q.horizon, q.times),
                            points=states)
        diag = series.diagnostics
        for sensitivity in probe_results():
            diag.boundary_sensitivity = sensitivity
            diag.boundary_flagged = sensitivity > PROBE_TOLERANCE
            if diag.boundary_flagged:
                diag.notes.append(f"boundary sensitivity {sensitivity:.3e} "
                                  f"exceeds tolerance {PROBE_TOLERANCE:.1e}")

    values = np.where(on_side[:, None], series.values, dirichlet)
    # The initial data is exact at t=0: the indicator of the query's own
    # side for pinned-0 kinds, of the complement for pinned-1 kinds.
    values[:, 0] = np.where(on_side, 1.0 - dirichlet, dirichlet)

    diagnostics = series.diagnostics.as_dict()
    diagnostics.update({
        "solve_box_lo": list(grid.lo), "solve_box_hi": list(grid.hi),
        "solve_cells": list(grid.cells),
        "interior_nodes": int(spec.interior_mask.sum()),
        "wrong_side_states": int(np.count_nonzero(~on_side)),
    })
    provenance = {
        "solver_version": __version__,
        "query_hash": _query_hash(kind, q, level),
    }
    if config_hash is not None:
        provenance["config_hash"] = config_hash
    z = np.concatenate([phi0[:, None], states], axis=1)
    return DistributionResult(kind=kind, states=states, z=z,
                              times=np.asarray(series.times), level=level,
                              values=values, diagnostics=diagnostics,
                              provenance=provenance, series=series)


# The four kinds under their own names (see the module docstring).
invariance_ccdf = partial(solve_distribution, "invariance_ccdf")
exit_time_cdf = partial(solve_distribution, "exit_cdf")
convergence_cdf = partial(solve_distribution, "convergence_cdf")
entry_time_cdf = partial(solve_distribution, "entry_cdf")


def event_time_cdf(result: DistributionResult) -> np.ndarray:
    """The first-passage CDF in time implied by the tabulated values.

    Exit/entry kinds are already CDFs; the running-extremum kinds are the
    survival functions of the matching passage time, so their complement
    is returned.
    """
    if KIND_TABLE[result.kind].increasing:
        return result.values
    return 1.0 - result.values


def summary_stats(result: DistributionResult, quantiles=(0.25, 0.5, 0.75),
                  monotone_tol: float = 1e-6) -> dict:
    """Quantiles, horizon-truncated mean, and tail mass per query state.

    The mean passage time integrates the survival function over the
    tabulated horizon by trapezoid and is a lower bound whenever mass
    remains beyond the horizon; that censored mass is reported alongside.
    """
    times = result.times
    cdf = event_time_cdf(result)
    slip = np.diff(cdf, axis=1)
    if slip.size and slip.min() < -monotone_tol:
        raise DataError(
            f"tabulation is not monotone (worst backward step {-slip.min():.3e})")
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0), axis=1)

    n_states = cdf.shape[0]
    q_out: dict = {}
    for q in quantiles:
        vals = np.full(n_states, np.nan)
        for i in range(n_states):
            row = cdf[i]
            if row[-1] >= q:
                j = int(np.searchsorted(row, q))
                if j == 0 or row[j] == q:
                    vals[i] = times[j]
                else:
                    t0, t1 = times[j - 1], times[j]
                    c0, c1 = row[j - 1], row[j]
                    vals[i] = t0 if c1 == c0 else t0 + (q - c0) * (t1 - t0) / (c1 - c0)
        q_out[q] = vals

    survival = 1.0 - cdf
    mean_lb = np.trapezoid(survival, times, axis=1) if len(times) > 1 \
        else np.zeros(n_states)
    censored = survival[:, -1]
    half_idx = int(np.searchsorted(times, times[-1] / 2.0))
    return {
        "kind": result.kind,
        "quantiles": q_out,
        "mean_time_lower_bound": mean_lb,
        "censored_mass": censored,
        "tail_probabilities": {
            "half_horizon": survival[:, min(half_idx, len(times) - 1)],
            "horizon": censored,
        },
    }
