"""Convection-diffusion initial-boundary-value solver on rectangular grids.

Solves fields F(x, t) obeying

    dF/dt = 1/2 div(Sigma grad F) + (mu - 1/2 div Sigma) . grad F

on the nodes of a rectangular box, with a node-based Dirichlet region
defined by a boolean interior mask and a zero-gradient closure on box
faces that truncate the interior.  Expanding the divergence, the operator
is the generator form 1/2 tr(Sigma Hess F) + mu . grad F, so a solve with
``mu`` the closed-loop drift and ``Sigma = sigma sigma^T`` marches the
probability fields produced by the distribution layer.

Discretization: backward Euler in time, first-order upwind convection
oriented for the backward generator (positive velocity pulls from the
positive neighbor), conservative central diffusion with face-averaged
coefficients, and a four-point cross-derivative stencil for off-diagonal
diffusion entries.  Without cross terms the update matrix is an
M-matrix, so fields obey a discrete maximum principle.

Only interior nodes are unknowns: pinned nodes hold the Dirichlet value
g, so each step solves ``(I - dt L_II) u_I' = u_I + dt L_IP g`` over the
interior nodes.  At each recorded time the field is sampled at the query
points from a multilinear weight table built once; a solve keeps those
samples and the horizon field, so its memory does not grow with the times.

Linear solves: a sparse LU factorized once on 1D and 2D grids, a
Jacobi-preconditioned BiCGSTAB per step on 3D grids.  The LU takes a
minimum-degree column order on the structure of A^T + A and prefers
diagonal pivots (threshold 0.1), the standard choice for a stencil
matrix that is diagonally dominant by rows; partial pivoting would move
pivots off the diagonal, because upwind convection makes A not
column-dominant, and fill more.  Neither solve makes a threaded BLAS
call, so fields do not depend on the BLAS thread count.

The module does no I/O: ``safeprob.artifacts`` writes fields to files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DataError, SolverError
from .system_model import BarrierProblem

MAX_GRID_DIM = 3
DEFAULT_NODE_CAP = 4_000_000
MIN_CELLS = 8

LINEAR_RTOL = 1e-10
LINEAR_MAXITER = 10_000

# Grids with at least this many axes march with Jacobi-BiCGSTAB, others with
# a sparse LU.  Measured on the interior-only step matrices (2 vCPUs, one BLAS
# thread): on the shipped 2D grid (20,192 unknowns) Krylov takes 13.7 ms a
# step (24 iterations) against 1.2 ms for an LU solve; on the benchmark's 3D
# grid (33,831 unknowns) the LU takes 4.5 s to factor, fills 20.3M nonzeros
# and 31.5 ms a step against 4.9 ms (3.5 iterations) for Krylov.
_KRYLOV_MIN_NDIM = 3


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
               level: float | None = None) -> np.ndarray:
    """Interior mask from the barrier's level set.

    ``side='super'`` marks nodes with phi >= level interior, ``'sub'``
    marks phi < level.  Comparisons are weak on the super side by
    convention; the two sides are exact complements.
    """
    if side not in ("super", "sub"):
        raise ValueError(f"side must be 'super' or 'sub', got {side!r}")
    if level is None:
        level = bar.level
    phi = bar.phi_at(grid.nodes()).reshape(grid.shape)
    return phi >= level if side == "super" else phi < level


@dataclass(frozen=True)
class IbvpSpec:
    """A discretized masked-Dirichlet convection-diffusion problem.

    ``convection`` holds the drift mu per node (shape + (n,)) and
    ``diffusion`` the tensor Sigma per node (shape + (n, n), symmetric
    PSD).  Nodes outside ``interior_mask`` are pinned to
    ``dirichlet_value`` for all time.  ``initial_field`` must be a 0/1
    indicator agreeing with the Dirichlet data on pinned nodes.
    """

    grid: GridSpec
    interior_mask: np.ndarray
    convection: np.ndarray
    diffusion: np.ndarray
    dirichlet_value: float
    initial_field: np.ndarray
    horizon: float
    dt: float

    def __post_init__(self):
        shape = self.grid.shape
        n = self.grid.ndim
        mask = np.asarray(self.interior_mask, dtype=bool)
        conv = np.asarray(self.convection, dtype=float)
        diff = np.asarray(self.diffusion, dtype=float)
        init = np.asarray(self.initial_field, dtype=float)
        if mask.shape != shape:
            raise DataError(f"interior_mask shape {mask.shape} != grid shape {shape}")
        if conv.shape != shape + (n,):
            raise DataError(f"convection shape {conv.shape} != {shape + (n,)}")
        if diff.shape != shape + (n, n):
            raise DataError(f"diffusion shape {diff.shape} != {shape + (n, n)}")
        if init.shape != shape:
            raise DataError(f"initial_field shape {init.shape} != grid shape {shape}")
        if not np.all(np.isfinite(conv)) or not np.all(np.isfinite(diff)):
            raise DataError("convection/diffusion fields contain non-finite values")
        scale = max(1.0, float(np.max(np.abs(diff))))
        if np.max(np.abs(diff - np.swapaxes(diff, -1, -2))) > 1e-12 * scale:
            raise DataError("diffusion tensor is not symmetric per node")
        eigs = np.linalg.eigvalsh(diff.reshape(-1, n, n))
        if eigs.min() < -1e-10 * scale:
            raise DataError(f"diffusion tensor not PSD (min eigenvalue {eigs.min():.3e})")
        if not np.all((init == 0.0) | (init == 1.0)):
            raise DataError("initial_field values must be 0 or 1")
        if not np.all(init[~mask] == float(self.dirichlet_value)):
            raise DataError("initial_field disagrees with Dirichlet data on masked-out nodes")
        if self.horizon < 0:
            raise DataError("horizon must be >= 0")
        if self.dt <= 0:
            raise DataError("dt must be > 0")
        object.__setattr__(self, "interior_mask", mask)
        object.__setattr__(self, "convection", conv)
        object.__setattr__(self, "diffusion", diff)
        object.__setattr__(self, "initial_field", init)
        for arr in (mask, conv, diff, init):
            arr.setflags(write=False)


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
        return {
            "n_steps": self.n_steps,
            "dt_effective": self.dt_effective,
            "max_residual": self.max_residual,
            "last_residual": self.last_residual,
            "total_iterations": self.total_iterations,
            "row_sum_defect": self.row_sum_defect,
            "field_min": None if np.isinf(self.field_min) else self.field_min,
            "field_max": None if np.isinf(self.field_max) else self.field_max,
            "boundary_sensitivity": self.boundary_sensitivity,
            "boundary_flagged": self.boundary_flagged,
            "notes": list(self.notes),
        }


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


def _divergence(diff: np.ndarray, spacing) -> np.ndarray:
    """Per-node divergence of the tensor field: out[..., b] = sum_a d_a Sigma_ab."""
    shape = diff.shape[:-2]
    n = diff.shape[-1]
    out = np.zeros(shape + (n,))
    for b in range(n):
        for a in range(n):
            comp = diff[..., a, b]
            if comp.shape[a] > 1:
                out[..., b] += np.gradient(comp, spacing[a], axis=a)
    return out


def _assemble_operator(spec: IbvpSpec) -> sp.csr_matrix:
    """Rows of the spatial operator L at the interior nodes, shape (interior, nodes).

    Row i belongs to the i-th interior node in C order; columns index every
    node, pinned ones included.
    """
    grid = spec.grid
    shape = grid.shape
    n = grid.ndim
    h = grid.spacing
    N = grid.n_nodes
    base = np.flatnonzero(spec.interior_mask.ravel())
    velocity = spec.convection - 0.5 * _divergence(spec.diffusion, h)
    vel_flat = velocity.reshape(N, n)[base]
    diff_flat = spec.diffusion.reshape(N, n, n)

    index = np.unravel_index(base, shape)

    def shifted(delta) -> np.ndarray:
        coords = [np.clip(index[a] + delta[a], 0, shape[a] - 1) for a in range(n)]
        return np.ravel_multi_index(coords, shape)

    rows, cols, vals = [], [], []
    row = np.arange(base.size)

    def add(col_idx, coeff):
        rows.append(row)
        cols.append(col_idx)
        vals.append(coeff)

    for a in range(n):
        dp = tuple(1 if i == a else 0 for i in range(n))
        dm = tuple(-1 if i == a else 0 for i in range(n))
        plus = shifted(dp)
        minus = shifted(dm)

        # Upwind convection for the backward generator: positive velocity
        # pulls the field value from the positive neighbor.
        v = vel_flat[:, a]
        vp = np.maximum(v, 0.0) / h[a]
        vm = np.minimum(v, 0.0) / h[a]
        add(plus, vp)
        add(minus, -vm)
        add(base, -(vp - vm))

        # Conservative diffusion with face-averaged coefficients.
        saa = diff_flat[:, a, a]
        wp = 0.25 * (saa[base] + saa[plus]) / h[a] ** 2
        wm = 0.25 * (saa[base] + saa[minus]) / h[a] ** 2
        add(plus, wp)
        add(minus, wm)
        add(base, -(wp + wm))

        # Cross-derivative stencil for off-diagonal diffusion.
        for b in range(a + 1, n):
            sab = diff_flat[:, a, b]
            if not np.any(sab):
                continue
            for outer, inner in ((a, b), (b, a)):
                op = tuple(1 if i == outer else 0 for i in range(n))
                om = tuple(-1 if i == outer else 0 for i in range(n))
                ip = tuple(1 if i == inner else 0 for i in range(n))
                im = tuple(-1 if i == inner else 0 for i in range(n))
                c_p = 0.5 * sab[shifted(op)] / (4.0 * h[outer] * h[inner])
                c_m = 0.5 * sab[shifted(om)] / (4.0 * h[outer] * h[inner])
                add(shifted(tuple(x + y for x, y in zip(op, ip))), c_p)
                add(shifted(tuple(x + y for x, y in zip(op, im))), -c_p)
                add(shifted(tuple(x + y for x, y in zip(om, ip))), -c_m)
                add(shifted(tuple(x + y for x, y in zip(om, im))), c_m)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    keep = vals != 0.0
    L = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(base.size, N))
    return L.tocsr()


class ThetaStepper:
    """Owns the backward-Euler step matrix over the interior nodes and its solves.

    Pinned nodes hold the Dirichlet value g for all time, so only the
    interior values u_I are unknowns: each step solves
    ``A u_I' = u_I + c`` with ``A = I - dt L_II`` and the constant load
    ``c = dt L_IP g`` of the pinned columns.  The spec needs at least one
    interior node.

    On grids with fewer than ``_KRYLOV_MIN_NDIM`` axes the step matrix is
    LU-factorized once and each step is one solve with that factorization.
    On larger ones each step runs BiCGSTAB preconditioned by the inverse
    diagonal of the step matrix, warm-started from the previous values.
    ``solves`` counts applications of the factorization or of the Jacobi
    preconditioner (two per BiCGSTAB iteration).
    """

    def __init__(self, spec: IbvpSpec):
        mask = spec.interior_mask.ravel()
        interior = np.flatnonzero(mask)
        n_int = interior.size
        L_I = _assemble_operator(spec)
        # Interior columns of L_I map to step-matrix columns through ``pos``.
        pos = np.full(mask.size, -1)
        pos[interior] = np.arange(n_int)
        cols = pos[L_I.indices]
        inner = cols >= 0
        rows = np.repeat(np.arange(n_int), np.diff(L_I.indptr))
        L_II = sp.csr_matrix((L_I.data[inner], (rows[inner], cols[inner])),
                             shape=(n_int, n_int))
        # Zero up to rounding: the generator sends constants to zero.
        self.row_sum_defect = float(np.max(np.abs(L_I @ np.ones(mask.size))))
        g = float(spec.dirichlet_value)
        self._load = spec.dt * (L_I @ np.where(mask, 0.0, g))
        # ||b||^2 of the full-node right-hand side contributed by pinned rows.
        self._pinned_sq = (mask.size - n_int) * g * g
        self.A = (sp.identity(n_int, format="csr") - spec.dt * L_II).tocsr()
        self.solves = 0
        self._lu = None
        if spec.grid.ndim < _KRYLOV_MIN_NDIM:
            try:
                self._lu = spla.splu(self.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.1,
                                     options={"SymmetricMode": True})
            except RuntimeError as err:
                raise SolverError(f"step matrix is singular: {err}") from err
        else:
            self._dinv = 1.0 / self.A.diagonal()

    def _bicgstab(self, b: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
        """Jacobi-preconditioned BiCGSTAB (van der Vorst 1992) from the guess ``x``.

        Stops once the residual norm is at most ``tol``.  Inner products are
        ``np.sum(u * v)``, not BLAS ``dot``, so the iterates do not depend on
        the BLAS thread count.
        """
        A, dinv = self.A, self._dinv
        r = b - A @ x
        r0 = r.copy()
        rho = alpha = omega = 1.0
        p = v = np.zeros_like(b)
        for it in range(LINEAR_MAXITER):
            if np.sqrt(np.sum(r * r)) <= tol:
                return x
            rho, rho_prev = np.sum(r0 * r), rho
            p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
            p_hat = dinv * p
            v = A @ p_hat
            alpha = rho / np.sum(r0 * v)
            s = r - alpha * v
            self.solves += 1
            if np.sqrt(np.sum(s * s)) <= tol:
                return x + alpha * p_hat
            s_hat = dinv * s
            t = A @ s_hat
            omega = np.sum(t * s) / np.sum(t * t)
            self.solves += 1
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            if not np.isfinite(omega) or omega == 0.0:
                break
        raise SolverError(f"BiCGSTAB did not reach residual {0.1 * LINEAR_RTOL:.1e} "
                          f"in {it + 1} iterations")

    def step(self, u: np.ndarray) -> tuple[np.ndarray, float]:
        """Advance the interior values one step; returns (values, relative residual).

        The residual is relative to the full-node right-hand side, pinned
        rows included, and is summed without BLAS so it is thread-count
        independent.
        """
        b = u + self._load
        b_norm = np.sqrt(np.sum(u * u) + self._pinned_sq)
        if self._lu is not None:
            x = self._lu.solve(b)
            self.solves += 1
        else:
            x = self._bicgstab(b, u, 0.1 * LINEAR_RTOL * b_norm)
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
    diag = SolveDiagnostics()
    T = float(spec.horizon)
    if T == 0.0:
        n_steps = 0
        dt_eff = spec.dt
    else:
        n_steps = max(1, int(round(T / spec.dt)))
        dt_eff = T / n_steps
        if abs(dt_eff - spec.dt) > 1e-9 * max(spec.dt, 1.0):
            diag.notes.append(f"dt adjusted from {spec.dt} to {dt_eff} to divide the horizon")
    diag.n_steps = n_steps
    diag.dt_effective = dt_eff

    wanted = {0, n_steps}
    if snapshot_times is not None:
        wanted |= {min(max(int(round(float(t) / dt_eff)), 0), n_steps)
                   for t in snapshot_times}
    steps = sorted(wanted)

    # Pinned nodes keep the Dirichlet value; only the interior values march.
    field = spec.initial_field.astype(float).ravel()
    interior = np.flatnonzero(spec.interior_mask.ravel())
    sampler = GridSampler(spec.grid, np.empty((0, spec.grid.ndim)) if points is None
                          else points)
    values = np.empty((sampler.index.shape[1], len(steps)))
    values[:, 0] = sampler(field)
    diag.field_min = float(field.min())
    diag.field_max = float(field.max())

    if n_steps > 0 and interior.size:
        stepper = ThetaStepper(spec)
        u = field[interior]
        col = 1
        for k in range(1, n_steps + 1):
            u, residual = stepper.step(u)
            diag.max_residual = max(diag.max_residual, residual)
            diag.last_residual = residual
            diag.field_min = min(diag.field_min, float(u.min()))
            diag.field_max = max(diag.field_max, float(u.max()))
            if k in wanted:
                field[interior] = u
                values[:, col] = sampler(field)
                col += 1
        diag.total_iterations = stepper.solves
        diag.row_sum_defect = stepper.row_sum_defect
    else:
        # No interior node: nothing marches and every recorded time holds
        # the Dirichlet field.
        values[:, 1:] = values[:, :1]

    lo_ok = min(0.0, spec.dirichlet_value) - 1e-8
    hi_ok = max(1.0, spec.dirichlet_value) + 1e-8
    if diag.field_min < lo_ok or diag.field_max > hi_ok:
        raise SolverError(
            f"field left the admissible range [{lo_ok}, {hi_ok}]: "
            f"min {diag.field_min}, max {diag.field_max}", residual=diag.max_residual)

    return FieldSeries(grid=spec.grid, times=np.asarray(steps) * dt_eff, values=values,
                       final_field=field.reshape(spec.grid.shape),
                       dirichlet_value=spec.dirichlet_value, diagnostics=diag)

