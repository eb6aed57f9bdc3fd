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

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import RegularGridInterpolator

from .errors import DataError, SolverError
from .system_model import BarrierProblem

MAX_GRID_DIM = 3
DEFAULT_NODE_CAP = 4_000_000
MIN_CELLS = 8

LINEAR_RTOL = 1e-10
LINEAR_MAXITER = 10_000

# Grids with at least this many axes march with Jacobi-BiCGSTAB, others with
# a sparse LU: a 59k-node 3D LU (COLAMD order) took 14 s and about 500 MB
# against 3-4 Krylov iterations a step, while in 2D Krylov needs 25-77
# iterations a step against one 0.9 ms LU solve at 29k nodes.
_KRYLOV_MIN_NDIM = 3

# A boundary probe whose two solves disagree by more than this at a query
# state flags the solve as truncation-sensitive.
PROBE_TOLERANCE = 1e-3


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
            raise ValueError("lo, hi, cells must have equal lengths")
        if self.ndim == 0:
            raise ValueError("grid needs at least one axis")
        if self.ndim > MAX_GRID_DIM:
            raise ValueError(f"grids above {MAX_GRID_DIM}D are rejected (got {self.ndim}D)")
        for a, (lo, hi, c) in enumerate(zip(self.lo, self.hi, self.cells)):
            if not lo < hi:
                raise ValueError(f"axis {a}: lower bound {lo} must be below upper bound {hi}")
            if c < MIN_CELLS:
                raise ValueError(f"axis {a}: cell count {c} below minimum {MIN_CELLS}")
        if self.n_nodes > DEFAULT_NODE_CAP:
            raise ValueError(f"grid has {self.n_nodes} nodes, above cap {DEFAULT_NODE_CAP}")

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
    phi = np.asarray(bar.phi_at(grid.nodes()), dtype=float).reshape(grid.shape)
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
    field_min: float = np.inf
    field_max: float = -np.inf
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
            "field_min": None if np.isinf(self.field_min) else self.field_min,
            "field_max": None if np.isinf(self.field_max) else self.field_max,
            "boundary_sensitivity": self.boundary_sensitivity,
            "boundary_flagged": self.boundary_flagged,
            "notes": list(self.notes),
        }


@dataclass
class FieldSeries:
    """Recorded snapshots of a solve: times (starting at 0) and fields."""

    grid: GridSpec
    times: np.ndarray
    fields: np.ndarray
    dirichlet_value: float
    diagnostics: SolveDiagnostics

    def sample(self, states, time_index: int) -> np.ndarray:
        """Multilinear interpolation of one snapshot at stacked states."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        interp = RegularGridInterpolator(self.grid.axes(), self.fields[time_index],
                                         method="linear", bounds_error=True)
        return interp(states)


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
    """Spatial operator L with rows zeroed on masked-out nodes."""
    grid = spec.grid
    shape = grid.shape
    n = grid.ndim
    h = grid.spacing
    N = grid.n_nodes
    mask_flat = spec.interior_mask.ravel()
    velocity = spec.convection - 0.5 * _divergence(spec.diffusion, h)
    vel_flat = velocity.reshape(N, n)
    diff_flat = spec.diffusion.reshape(N, n, n)

    index = np.unravel_index(np.arange(N), shape)

    def shifted(delta) -> np.ndarray:
        coords = [np.clip(index[a] + delta[a], 0, shape[a] - 1) for a in range(n)]
        return np.ravel_multi_index(coords, shape)

    rows, cols, vals = [], [], []
    base = np.arange(N)

    def add(col_idx, coeff):
        rows.append(base)
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
        wp = 0.25 * (saa + saa[plus]) / h[a] ** 2
        wm = 0.25 * (saa + saa[minus]) / h[a] ** 2
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
    keep = mask_flat[rows] & (vals != 0.0)
    L = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(N, N))
    return L.tocsr()


class ThetaStepper:
    """Owns the backward-Euler step matrix ``A = I - dt L`` and its linear solves.

    On grids with fewer than ``_KRYLOV_MIN_NDIM`` axes the step matrix is
    LU-factorized once and each step is one solve with that factorization.
    On larger ones each step runs BiCGSTAB preconditioned by the inverse
    diagonal of the step matrix, warm-started from the previous field.
    ``solves`` counts applications of the factorization or of the Jacobi
    preconditioner (two per BiCGSTAB iteration).
    """

    def __init__(self, spec: IbvpSpec):
        self.spec = spec
        self.pinned = ~spec.interior_mask.ravel()
        L = _assemble_operator(spec)
        N = spec.grid.n_nodes
        self.A = (sp.identity(N, format="csr") - spec.dt * L).tocsr()
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

    def _residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative 2-norm residual, summed without BLAS so it is thread-count independent."""
        r = self.A @ x - b
        return float(np.sqrt(np.sum(r * r)) / max(np.sqrt(np.sum(b * b)), 1e-300))

    def _bicgstab(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Jacobi-preconditioned BiCGSTAB (van der Vorst 1992) from the guess ``x``.

        Inner products are ``np.sum(u * v)``, not BLAS ``dot``, so the
        iterates do not depend on the BLAS thread count.
        """
        A, dinv = self.A, self._dinv
        tol = 0.1 * LINEAR_RTOL * np.sqrt(np.sum(b * b))
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

    def step(self, field_flat: np.ndarray) -> tuple[np.ndarray, float]:
        """Advance one step; returns (field, relative residual)."""
        b = field_flat.copy()
        b[self.pinned] = self.spec.dirichlet_value
        if self._lu is not None:
            x = self._lu.solve(b)
            self.solves += 1
        else:
            x = self._bicgstab(b, field_flat.copy())
        residual = self._residual(x, b)
        if residual > LINEAR_RTOL:
            raise SolverError(f"linear solve failed to reach residual {LINEAR_RTOL:.1e} "
                              f"(achieved {residual:.3e})", residual=residual)
        x[self.pinned] = self.spec.dirichlet_value
        return x, residual


@dataclass(frozen=True)
class SensitivityProbe:
    """Coarse pair of solves isolating the truncation-boundary effect.

    ``coarse`` matches the main spec's box at probe resolution and
    ``doubled`` extends the truncated faces outward; the diagnostic is the
    largest disagreement at the probe points at the final time, flagged
    above ``PROBE_TOLERANCE``.
    """

    coarse: IbvpSpec
    doubled: IbvpSpec
    points: np.ndarray


def solve_ibvp(spec: IbvpSpec, snapshot_times: Sequence[float] | None = None,
               sensitivity_probe: SensitivityProbe | None = None) -> FieldSeries:
    """Time-march the IBVP, recording snapshots at the requested times.

    Snapshot times are snapped to the step grid; t=0 is always recorded.
    When a sensitivity probe is supplied, both probe specs are solved to
    the horizon and their disagreement at the probe points is reported in
    the diagnostics (a flag, never an error).
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

    if snapshot_times is None:
        wanted = {0, n_steps}
    else:
        wanted = {int(round(float(t) / dt_eff)) if dt_eff > 0 else 0
                  for t in snapshot_times}
        wanted = {min(max(s, 0), n_steps) for s in wanted}
        wanted.add(0)

    field = spec.initial_field.astype(float).ravel().copy()

    times = [0.0]
    records = [field.reshape(spec.grid.shape).copy()]
    diag.field_min = float(field.min())
    diag.field_max = float(field.max())

    if n_steps > 0:
        # Re-solving the same geometry repeatedly shares nothing here by
        # design: each spec owns its workspace exclusively.
        stepper = ThetaStepper(spec)
        for k in range(1, n_steps + 1):
            field, residual = stepper.step(field)
            diag.max_residual = max(diag.max_residual, residual)
            diag.last_residual = residual
            diag.field_min = min(diag.field_min, float(field.min()))
            diag.field_max = max(diag.field_max, float(field.max()))
            if k in wanted:
                times.append(k * dt_eff)
                records.append(field.reshape(spec.grid.shape).copy())
        diag.total_iterations = stepper.solves

    lo_ok = min(0.0, spec.dirichlet_value) - 1e-8
    hi_ok = max(1.0, spec.dirichlet_value) + 1e-8
    if diag.field_min < lo_ok or diag.field_max > hi_ok:
        raise SolverError(
            f"field left the admissible range [{lo_ok}, {hi_ok}]: "
            f"min {diag.field_min}, max {diag.field_max}", residual=diag.max_residual)

    if sensitivity_probe is not None:
        diag.boundary_sensitivity, diag.boundary_flagged = _run_probe(sensitivity_probe)
        if diag.boundary_flagged:
            diag.notes.append(
                f"boundary sensitivity {diag.boundary_sensitivity:.3e} exceeds "
                f"tolerance {PROBE_TOLERANCE:.1e}")

    return FieldSeries(grid=spec.grid, times=np.asarray(times), fields=np.stack(records),
                       dirichlet_value=spec.dirichlet_value, diagnostics=diag)


def _run_probe(probe: SensitivityProbe) -> tuple[float, bool]:
    base = solve_ibvp(probe.coarse)
    wide = solve_ibvp(probe.doubled)
    pts = np.atleast_2d(np.asarray(probe.points, dtype=float))
    delta = np.abs(base.sample(pts, -1) - wide.sample(pts, -1))
    sens = float(delta.max())
    return sens, sens > PROBE_TOLERANCE


def has_truncation_faces(grid: GridSpec, interior_mask: np.ndarray) -> list:
    """Axis/side pairs of box faces that cut through the interior.

    Returns a list of (axis, side) with side -1 for the low face and +1
    for the high face; empty when the Dirichlet region fully encloses the
    interior so no zero-gradient closure is active.
    """
    faces = []
    for a in range(grid.ndim):
        lo_slab = np.take(interior_mask, 0, axis=a)
        hi_slab = np.take(interior_mask, -1, axis=a)
        if np.any(lo_slab):
            faces.append((a, -1))
        if np.any(hi_slab):
            faces.append((a, +1))
    return faces
