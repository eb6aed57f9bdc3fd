"""Convection-diffusion initial-boundary-value solver on rectangular grids.

Solves fields F(x, t) obeying

    dF/dt = 1/2 div(Sigma grad F) + (mu - 1/2 div Sigma) . grad F

on the nodes of a rectangular box, with a node-based Dirichlet region
defined by a boolean interior mask and a zero-gradient closure on box
faces that truncate the interior.  Expanding the divergence, the operator
is the generator form 1/2 tr(Sigma Hess F) + mu . grad F, so a solve with
``mu`` the closed-loop drift and ``Sigma = sigma sigma^T``, PSD by
construction, marches the probability fields of the distribution layer.

Discretization: backward Euler in time, split into one factor per axis,
first-order upwind convection oriented for the backward generator
(positive velocity pulls from the positive neighbor), conservative central
diffusion with face-averaged coefficients, and a four-point
cross-derivative stencil for off-diagonal diffusion entries.  Without
cross terms each factor's matrix is an M-matrix, so fields obey a discrete
maximum principle.

Only interior nodes are unknowns: pinned nodes hold the Dirichlet value
g.  The operator is the sum of per-axis rows L_a (the axis-a convection
and diffusion, and the cross terms pairing axis a with each later axis),
and a step applies one backward-Euler factor per axis in turn, each
solving ``(I - dt L_a,II) u_I' = u_I + dt L_a,IP g`` over the interior
nodes: the fractional-step method (Yanenko, The Method of Fractional
Steps, 1971; Douglas & Rachford, Trans. AMS 82, 1956), first order in dt
like backward Euler itself.  In 1D the one factor is the whole step.  At
each recorded time the field is sampled at the query points from a
multilinear weight table built once; a solve keeps those samples and the
horizon field, so its memory does not grow with the times.

Assembly: each factor is built in one pass over the interior rows from the
stencil.  A term reaches its neighbour by flat-index stride; a step off the
box stays on the face, folding the term into a nearer column (the
zero-gradient closure), and a pinned neighbour's coefficient goes to the
load.  A column's terms add in stencil order, a row's sum and load its
columns in ascending order.  Sigma adds sigma's products over its columns.

Linear solves: each factor's matrix is LU-factorized once and each step
solves once with it.  Without cross terms a factor is a set of
independent tridiagonal line systems and the LU has no fill.  The LU
takes a minimum-degree column order on the structure of A^T + A and
prefers diagonal pivots (threshold 0.1), the standard choice for a
stencil matrix that is diagonally dominant by rows; partial pivoting
would move pivots off the diagonal, because upwind convection makes A
not column-dominant, and fill more.  A panel of one column keeps SuperLU's
transient work area small, which matters with one factor per axis.  No
solve makes a threaded BLAS call, so fields do not depend on the BLAS
thread count.

The module does no I/O: ``safeprob.artifacts`` writes fields to files.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DataError, SolverError, require_finite
from .system_model import BarrierProblem

MAX_GRID_DIM = 3
DEFAULT_NODE_CAP = 4_000_000
MIN_CELLS = 8

LINEAR_RTOL = 1e-10
# How far a probability field may leave [0, 1] through rounding.
RANGE_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Rectangular node-centered grid: per-axis bounds and cell counts."""

    lo: tuple
    hi: tuple
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        require_finite(lo=self.lo, hi=self.hi)
        if not (len(self.lo) == len(self.hi) == len(self.cells)):
            raise DataError("lo, hi, cells must have equal lengths")
        if self.ndim == 0:
            raise DataError("grid needs at least one axis")
        if self.ndim > MAX_GRID_DIM:
            raise DataError(f"grids above {MAX_GRID_DIM}D are rejected (got {self.ndim}D)")
        for a, (lo, hi, c) in enumerate(zip(self.lo, self.hi, self.cells)):
            if not lo < hi:
                raise DataError(f"axis {a}: lower bound {lo} must be below upper bound {hi}")
            if c < MIN_CELLS:
                raise DataError(f"axis {a}: cell count {c} below minimum {MIN_CELLS}")
        if self.n_nodes > DEFAULT_NODE_CAP:
            raise DataError(f"grid has {self.n_nodes} nodes, above cap {DEFAULT_NODE_CAP}")

    @property
    def ndim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple:
        return tuple(c + 1 for c in self.cells)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / c for lo, hi, c in zip(self.lo, self.hi, self.cells))

    def axes(self) -> tuple:
        return tuple(np.linspace(lo, hi, c + 1)
                     for lo, hi, c in zip(self.lo, self.hi, self.cells))

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, ndim), C-ordered."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def build_mask(grid: GridSpec, bar: BarrierProblem, side: str,
               level: float = 0.0) -> np.ndarray:
    """Interior mask from the barrier's ``level`` set.

    ``side='super'`` marks nodes with phi >= level interior, ``'sub'``
    marks phi < level.  Comparisons are weak on the super side by
    convention; the two sides are exact complements.  A NaN would sit on
    neither side, so DataError names the first node where phi is not finite.
    """
    if side not in ("super", "sub"):
        raise ValueError(f"side must be 'super' or 'sub', got {side!r}")
    phi = bar.finite_phi_at(grid.nodes(), "grid node").reshape(grid.shape)
    return phi >= level if side == "super" else phi < level


@dataclass(frozen=True)
class IbvpSpec:
    """A discretized masked-Dirichlet convection-diffusion problem.

    ``convection`` holds the drift mu per node (shape + (n,)) and ``sigma``
    the noise matrix per node (shape + (n, k)); the diffusion tensor
    ``Sigma = sigma sigma^T`` is formed once, on first use.  Nodes outside
    ``interior_mask`` are pinned to ``dirichlet_value`` g, 0 or 1, for all
    time, and the march starts from 1 - g on the interior.
    """

    grid: GridSpec
    interior_mask: np.ndarray
    convection: np.ndarray
    sigma: np.ndarray
    dirichlet_value: float
    horizon: float
    dt: float

    def __post_init__(self):
        shape = self.grid.shape
        n = self.grid.ndim
        mask = np.asarray(self.interior_mask, dtype=bool)
        conv = np.asarray(self.convection, dtype=float)
        sig = np.asarray(self.sigma, dtype=float)
        if mask.shape != shape:
            raise DataError(f"interior_mask shape {mask.shape} != grid shape {shape}")
        if conv.shape != shape + (n,):
            raise DataError(f"convection shape {conv.shape} != {shape + (n,)}")
        if sig.shape[:-1] != shape + (n,):
            raise DataError(f"sigma shape {sig.shape} is not {shape + (n,)} + (k,)")
        if not np.all(np.isfinite(conv)) or not np.all(np.isfinite(sig)):
            raise DataError("convection/sigma fields contain non-finite values")
        if self.dirichlet_value not in (0.0, 1.0):
            raise DataError(f"dirichlet_value must be 0 or 1, got {self.dirichlet_value}")
        require_finite(horizon=self.horizon, dt=self.dt)
        if self.horizon < 0:
            raise DataError("horizon must be >= 0")
        if self.dt <= 0:
            raise DataError("dt must be > 0")
        for name, arr in (("interior_mask", mask), ("convection", conv), ("sigma", sig)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def Sigma(self) -> np.ndarray:
        """The diffusion tensor sigma sigma^T, shape (n, n, nodes): ``Sigma[i, j]``
        is a node vector, the products of sigma's rows i and j added in column order."""
        n, k = self.sigma.shape[-2:]
        sig = self.sigma.reshape(-1, n, k)
        Sigma = np.empty((n, n, sig.shape[0]))
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            Sigma[i, j] = Sigma[j, i] = sum(sig[:, i, c] * sig[:, j, c] for c in range(k))
        Sigma.setflags(write=False)
        return Sigma


@dataclass
class SolveDiagnostics:
    n_steps: int = 0
    dt_effective: float = 0.0
    max_residual: float = 0.0
    last_residual: float = 0.0
    total_iterations: int = 0
    row_sum_defect: float = 0.0
    field_min: float = np.inf
    field_max: float = -np.inf
    # Filled in by ``safeprob.distributions`` after its box-doubling solves; None
    # when they did not run.
    boundary_sensitivity: float | None = None
    boundary_flagged: bool | None = None
    notes: list = dc_field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


class GridSampler:
    """Multilinear interpolation of flat grid fields at fixed points.

    Built once per point set: ``index`` (2^d, m) holds the flat indices of
    the corners of each point's cell (the last cell on an upper face) and
    ``weight`` (2^d, d, m) their per-axis factors.  A term multiplies the
    node value by its factors axis by axis and terms add in corner order,
    SciPy's ``RegularGridInterpolator`` order in 1D and 2D.  At a node the
    factors are exactly 0 and 1, so samples are the node values.
    """

    def __init__(self, grid: GridSpec, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != grid.ndim:
            raise DataError(f"sample points need shape (m, {grid.ndim}), got {points.shape}")
        cell, frac = [], []
        for a, x in enumerate(grid.axes()):
            p = points[:, a]
            if not np.all((p >= x[0]) & (p <= x[-1])):
                raise DataError(f"sample points leave the grid box on axis {a}")
            i = np.clip(np.searchsorted(x, p, side="right") - 1, 0, x.size - 2)
            cell.append(i)
            frac.append((p - x[i]) / (x[i + 1] - x[i]))
        corners = list(itertools.product((0, 1), repeat=grid.ndim))
        self.index = np.array([np.ravel_multi_index([i + b for i, b in zip(cell, bits)],
                                                    grid.shape) for bits in corners])
        self.weight = np.array([[y if b else 1.0 - y for y, b in zip(frac, bits)]
                                for bits in corners])

    def __call__(self, field: np.ndarray) -> np.ndarray:
        """Interpolated values of a flat (C-ordered) field at the points."""
        terms = field[self.index]
        for a in range(self.weight.shape[1]):
            terms *= self.weight[:, a]
        return sum(terms, np.zeros(terms.shape[1]))


@dataclass
class FieldSeries:
    """What a solve keeps: the field at query points over time, and at the horizon.

    ``values[i, j]`` is the field at the solve's i-th query point and at
    ``times[j]`` (0 to the horizon).  ``final_field``, the horizon field, is
    the only full-grid field kept, so memory does not grow with the times.
    """

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray
    final_field: np.ndarray
    dirichlet_value: float
    diagnostics: SolveDiagnostics

    def sample(self, states) -> np.ndarray:
        """Multilinear interpolation of the horizon field at stacked states."""
        return GridSampler(self.grid, states)(self.final_field.ravel())


def _axis_factor(spec: IbvpSpec, a: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Axis ``a``'s factor over the interior nodes in C order, built in one pass
    over their rows (see Assembly above): ``A = I - dt L_a,II``, the pinned load
    ``dt L_a,IP g`` and the row sums of ``L_a``."""
    shape, n, h, dt = spec.grid.shape, spec.grid.ndim, spec.grid.spacing, spec.dt
    mask = spec.interior_mask.ravel()
    base = np.flatnonzero(mask)
    index = np.unravel_index(base, shape)
    stride = np.cumprod((1,) + shape[:0:-1])[::-1]
    Sigma = spec.Sigma
    crosses = [b for b in range(a + 1, n) if np.any(Sigma[a, b])]
    # A row's slots are its neighbours zero or one step along each stencil axis;
    # a slot's number, in base 3 with digits step + 1, ascends with its column.
    place = dict(zip([a] + crosses, 3 ** np.arange(len(crosses), -1, -1)))
    size = 3 ** len(place)
    neighbours = {}

    def neighbour(offset) -> tuple[np.ndarray, np.ndarray]:
        """Each row's neighbour at ``offset``, clipped: flat index, place in ``vals``."""
        if tuple(offset) not in neighbours:
            flat, at = base.copy(), np.arange(size // 2, base.size * size, size)
            for c in np.flatnonzero(offset):
                step = offset[c] * (index[c] < shape[c] - 1 if offset[c] > 0 else index[c] > 0)
                flat += step * stride[c]
                at += step * place[c]
            neighbours[tuple(offset)] = flat, at
        return neighbours[tuple(offset)]

    # The axis component of mu - 1/2 div Sigma, with (div Sigma)_a = sum_b d_b Sigma_ba.
    div = sum(np.gradient(Sigma[b, a].reshape(shape), h[b], axis=b)
              for b in range(n) if np.any(Sigma[b, a]))
    v = (spec.convection[..., a] - 0.5 * div).ravel()[base]
    unit = np.eye(n, dtype=int)
    e = unit[a]
    # Upwind convection for the backward generator: positive velocity
    # pulls the field value from the positive neighbor.
    vp = np.maximum(v, 0.0) / h[a]
    vm = np.minimum(v, 0.0) / h[a]
    # Conservative diffusion with face-averaged coefficients.
    saa = Sigma[a, a]
    wp = 0.25 * (saa[base] + saa[neighbour(e)[0]]) / h[a] ** 2
    wm = 0.25 * (saa[base] + saa[neighbour(-e)[0]]) / h[a] ** 2
    terms = [(e, vp), (-e, -vm), (0 * e, -(vp - vm)), (e, wp), (-e, wm), (0 * e, -(wp + wm))]
    # Cross-derivative stencil for off-diagonal diffusion.
    for b in crosses:
        for outer, inner in ((a, b), (b, a)):
            eo, ei = unit[outer], unit[inner]
            c_p = 0.5 * Sigma[a, b][neighbour(eo)[0]] / (4.0 * h[outer] * h[inner])
            c_m = 0.5 * Sigma[a, b][neighbour(-eo)[0]] / (4.0 * h[outer] * h[inner])
            terms += [(eo + ei, c_p), (eo - ei, -c_p), (-eo + ei, -c_m), (-eo - ei, c_m)]

    vals = np.zeros((base.size, size))
    for offset, coeff in terms:
        vals.ravel()[neighbour(offset)[1]] += coeff
    # Slots a row does not reach hold 0 at the row's own node.
    cols = np.repeat(base[:, None], size, axis=1)
    for flat, at in neighbours.values():
        cols.ravel()[at] = flat
    pinned = ~mask[cols]
    sums = sum(vals.T, np.zeros(base.size))
    load = dt * sum((vals * np.where(pinned, spec.dirichlet_value, 0.0)).T, np.zeros(base.size))
    entries = -(dt * vals)
    entries[:, size // 2] = 1.0 - dt * vals[:, size // 2]
    # The interior columns, in the interior numbering; zero entries drop.
    keep = (~pinned & (entries != 0.0)).ravel()
    rank = np.cumsum(mask, dtype=np.int32) - 1
    indptr = np.concatenate(([0], np.cumsum(keep, dtype=np.int32)[size - 1::size]))
    return (sp.csr_matrix((entries.ravel()[keep], rank[cols.ravel()[keep]], indptr),
                          shape=(base.size, base.size)), load, sums)


class ThetaStepper:
    """Owns one axis's backward-Euler factor over the interior nodes and its solves.

    Pinned nodes hold the Dirichlet value g for all time, so each call of
    ``step`` solves ``A u_I' = u_I + c`` for the interior values, with ``A``
    and the constant load ``c`` from ``_axis_factor``.  ``A`` is LU-factorized
    once; ``solves`` counts the solves with that factorization, one per step.
    The spec needs at least one interior node.
    """

    def __init__(self, spec: IbvpSpec, axis: int):
        self.A, self._load, sums = _axis_factor(spec, axis)
        # Zero up to rounding: the generator sends constants to zero.
        self.row_sum_defect = float(np.max(np.abs(sums)))
        # ||b||^2 of the full-node right-hand side contributed by pinned rows.
        self._pinned_sq = (spec.grid.n_nodes - self.A.shape[0]) * float(spec.dirichlet_value) ** 2
        self.solves = 0
        try:
            self._lu = spla.splu(self.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.1, panel_size=1,
                                 options={"SymmetricMode": True})
        except RuntimeError as err:
            raise SolverError(f"step matrix is singular: {err}") from err

    def step(self, u: np.ndarray) -> tuple[np.ndarray, float]:
        """Apply the factor to the interior values; returns (values, relative residual).

        The residual is relative to the full-node right-hand side, pinned
        rows included, and is summed without BLAS so it is thread-count
        independent.
        """
        b = u + self._load
        b_norm = np.sqrt(np.sum(u * u) + self._pinned_sq)
        x = self._lu.solve(b)
        self.solves += 1
        r = self.A @ x - b
        residual = float(np.sqrt(np.sum(r * r)) / max(b_norm, 1e-300))
        if residual > LINEAR_RTOL:
            raise SolverError(f"linear solve failed to reach residual {LINEAR_RTOL:.1e} "
                              f"(achieved {residual:.3e})", residual=residual)
        return x, residual


def solve_ibvp(spec: IbvpSpec, snapshot_times: Sequence[float] | None = None,
               points=None) -> FieldSeries:
    """Time-march the IBVP, sampling the field at ``points`` at the requested times.

    Requested times are snapped to the step grid; t=0 and the horizon are
    always recorded.  ``points`` (stacked states inside the grid box, none
    by default) are sampled at every recorded time; the full field is kept
    at the horizon only.
    """
    T = float(spec.horizon)
    n_steps = max(1, int(round(T / spec.dt))) if T > 0.0 else 0
    dt_eff = T / n_steps if n_steps else spec.dt
    diag = SolveDiagnostics(n_steps=n_steps, dt_effective=dt_eff)
    if abs(dt_eff - spec.dt) > 1e-9 * max(spec.dt, 1.0):
        diag.notes.append(f"dt adjusted from {spec.dt} to {dt_eff} to divide the horizon")

    wanted = {0, n_steps}
    if snapshot_times is not None:
        wanted |= {min(max(int(round(float(t) / dt_eff)), 0), n_steps)
                   for t in snapshot_times}
    steps = sorted(wanted)

    # Pinned nodes keep the Dirichlet value; only the interior values march.
    g = spec.dirichlet_value
    field = np.where(spec.interior_mask, 1.0 - g, g).ravel()
    interior = np.flatnonzero(spec.interior_mask.ravel())
    sampler = GridSampler(spec.grid, np.empty((0, spec.grid.ndim)) if points is None
                          else points)
    values = np.empty((sampler.index.shape[1], len(steps)))
    values[:, 0] = sampler(field)
    diag.field_min = float(field.min())
    diag.field_max = float(field.max())

    if n_steps > 0 and interior.size:
        steppers = [ThetaStepper(spec, a) for a in range(spec.grid.ndim)]
        u = field[interior]
        col = 1
        for k in range(1, n_steps + 1):
            residual = 0.0
            for stepper in steppers:
                u, r = stepper.step(u)
                residual = max(residual, r)
            diag.max_residual = max(diag.max_residual, residual)
            diag.last_residual = residual
            diag.field_min = min(diag.field_min, float(u.min()))
            diag.field_max = max(diag.field_max, float(u.max()))
            if k in wanted:
                field[interior] = u
                values[:, col] = sampler(field)
                col += 1
        diag.total_iterations = sum(s.solves for s in steppers)
        # A step moves F + G - 1 by at most dt times each factor's defect.
        diag.row_sum_defect = sum(s.row_sum_defect for s in steppers)
    else:
        # No interior node: nothing marches and every recorded time holds
        # the Dirichlet field.
        values[:, 1:] = values[:, :1]

    if diag.field_min < -RANGE_TOL or diag.field_max > 1.0 + RANGE_TOL:
        raise SolverError(
            f"field left the admissible range [{-RANGE_TOL}, {1.0 + RANGE_TOL}]: "
            f"min {diag.field_min}, max {diag.field_max}", residual=diag.max_residual)

    return FieldSeries(grid=spec.grid, times=np.asarray(steps) * dt_eff, values=values,
                       final_field=field.reshape(spec.grid.shape),
                       dirichlet_value=spec.dirichlet_value, diagnostics=diag)

