import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from safeprob import (
    BarrierProblem,
    GridSpec,
    IbvpSpec,
    build_mask,
    make_example,
    pde_engine,
    solve_ibvp,
)
from safeprob.artifacts import export_snapshot_csv, series_to_json
from safeprob.distributions import (
    PROBE_TOLERANCE,
    NumericsConfig,
    _assemble,
    _padded_grid,
    _probe_grids,
    _probe_sensitivity,
)
from safeprob.errors import DataError, SolverError
from safeprob.pde_engine import (
    LINEAR_RTOL,
    GridSampler,
    ThetaStepper,
    _axis_factor,
)

from conftest import HEAT_HALFLINE, identity_barrier


def const_fields(grid, mu, sig2, axis=0):
    """Drift ``mu`` along ``axis`` and sigma ``sqrt(sig2)`` times the identity
    at every node, so Sigma is ``sig2`` times the identity."""
    shape = grid.shape
    n = grid.ndim
    conv = np.zeros(shape + (n,))
    conv[..., axis] = mu
    sigma = np.zeros(shape + (n, n))
    for a in range(n):
        sigma[..., a, a] = np.sqrt(sig2)
    return conv, sigma


def const_sigma(grid, Sigma):
    """The Cholesky factor of the constant tensor ``Sigma`` at every node."""
    return np.broadcast_to(np.linalg.cholesky(Sigma), grid.shape + np.shape(Sigma))


def line_spec(lo, hi, cells, mu, sig2, mask_fn, dirichlet, horizon=1.0, dt=1e-3):
    grid = GridSpec((lo,), (hi,), (cells,))
    mask = mask_fn(grid.axes()[0])
    conv, sigma = const_fields(grid, mu, sig2)
    return IbvpSpec(grid, mask, conv, sigma, dirichlet, horizon, dt)


def initial_field(spec):
    """The field a solve starts from: 1 - g on the interior, g on pinned nodes."""
    g = spec.dirichlet_value
    return np.where(spec.interior_mask, 1.0 - g, g)


def interior_values(spec):
    return initial_field(spec)[spec.interior_mask]


def reference_rows(spec, axis):
    """Axis ``axis``'s rows of the operator L at the interior nodes, shape
    (interior, nodes), built over all nodes: the reference for ``_axis_factor``.

    Every stencil term fills every interior row with a clipped neighbour
    column, ``Sigma`` comes from ``einsum``, and a COO to CSR conversion sums
    the terms that share a column.
    """
    grid = spec.grid
    shape = grid.shape
    n = grid.ndim
    h = grid.spacing
    a = axis
    base = np.flatnonzero(spec.interior_mask.ravel())
    sig = spec.sigma.reshape(grid.n_nodes, n, -1)
    Sigma = np.einsum("bik,bjk->bij", sig, sig)
    div = sum(np.gradient(Sigma[:, b, a].reshape(shape), h[b], axis=b) for b in range(n))
    v = (spec.convection[..., a] - 0.5 * div).ravel()[base]
    index = np.unravel_index(base, shape)
    unit = np.eye(n, dtype=int)

    def shifted(delta):
        coords = [np.clip(index[c] + delta[c], 0, shape[c] - 1) for c in range(n)]
        return np.ravel_multi_index(coords, shape)

    plus, minus = shifted(unit[a]), shifted(-unit[a])
    vp = np.maximum(v, 0.0) / h[a]
    vm = np.minimum(v, 0.0) / h[a]
    saa = Sigma[:, a, a]
    wp = 0.25 * (saa[base] + saa[plus]) / h[a] ** 2
    wm = 0.25 * (saa[base] + saa[minus]) / h[a] ** 2
    terms = [(plus, vp), (minus, -vm), (base, -(vp - vm)),
             (plus, wp), (minus, wm), (base, -(wp + wm))]
    for b in range(a + 1, n):
        sab = Sigma[:, a, b]
        if not np.any(sab):
            continue
        for outer, inner in ((a, b), (b, a)):
            eo, ei = unit[outer], unit[inner]
            c_p = 0.5 * sab[shifted(eo)] / (4.0 * h[outer] * h[inner])
            c_m = 0.5 * sab[shifted(-eo)] / (4.0 * h[outer] * h[inner])
            terms += [(shifted(eo + ei), c_p), (shifted(eo - ei), -c_p),
                      (shifted(-eo + ei), -c_m), (shifted(-eo - ei), c_m)]
    rows = np.tile(np.arange(base.size), len(terms))
    cols = np.concatenate([c for c, _ in terms])
    vals = np.concatenate([v for _, v in terms])
    keep = vals != 0.0
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(base.size, grid.n_nodes)).tocsr()


def reference_factor(spec, axis):
    """``_axis_factor``'s (A, load, row sums) from the all-node rows: A keeps
    the interior columns of ``I - dt L_I``, the load is ``dt L_I`` applied to
    g on the pinned nodes and the row sums ``L_I`` applied to ones."""
    mask = spec.interior_mask.ravel()
    L_I = reference_rows(spec, axis)
    pos = np.full(mask.size, -1)
    pos[mask] = np.arange(L_I.shape[0])
    cols = pos[L_I.indices]
    inner = cols >= 0
    rows = np.repeat(np.arange(L_I.shape[0]), np.diff(L_I.indptr))
    L_II = sp.csr_matrix((L_I.data[inner], (rows[inner], cols[inner])), shape=(L_I.shape[0],) * 2)
    A = (sp.identity(L_I.shape[0], format="csr") - spec.dt * L_II).tocsr()
    load = spec.dt * (L_I @ np.where(mask, 0.0, spec.dirichlet_value))
    return A, load, L_I @ np.ones(mask.size)


def full_node_steps(spec, n_steps, split=False):
    """Reference march over every node: Dirichlet rows are identity rows of
    ``I - dt L`` and each step is one ``spsolve``, or with ``split`` one
    ``spsolve`` per axis on ``I - dt L_a``; yields the interior values."""
    mask = spec.interior_mask.ravel()
    pinned = ~mask
    interior = np.flatnonzero(mask)
    # Place the interior rows of L at their nodes; pinned rows stay empty.
    embed = sp.csr_matrix((np.ones(interior.size), (interior, np.arange(interior.size))),
                          shape=(mask.size, interior.size))
    parts = [embed @ reference_rows(spec, a) for a in range(spec.grid.ndim)]
    if not split:
        parts = [sum(parts[1:], parts[0])]
    factors = [(sp.identity(spec.grid.n_nodes) - spec.dt * L).tocsc() for L in parts]
    field = initial_field(spec).ravel()
    for _ in range(n_steps):
        for A in factors:
            b = field.copy()
            b[pinned] = spec.dirichlet_value
            field = spla.spsolve(A, b)
        yield field[~pinned]


def split_steps(spec, values, n_steps):
    """The solver's own march: one ThetaStepper per axis; yields the interior values."""
    steppers = [ThetaStepper(spec, a) for a in range(spec.grid.ndim)]
    for _ in range(n_steps):
        for stepper in steppers:
            values, residual = stepper.step(values)
            assert residual <= LINEAR_RTOL
        yield values


def ball_exit_spec(cells=12, horizon=0.1, dt=1e-2):
    """Exit from the unit ball under a constant drift on a small 3D grid."""
    grid = GridSpec((-1.5,) * 3, (1.5,) * 3, (cells,) * 3)
    mask = np.sum(grid.nodes() ** 2, axis=1).reshape(grid.shape) < 1.0
    conv, sigma = const_fields(grid, 0.4, 0.5)
    return IbvpSpec(grid, mask, conv, sigma, 1.0, horizon, dt)


class TestGridSampler:
    @pytest.mark.parametrize("cells", [(9,), (9, 12), (8, 10, 9)])
    def test_matches_scipy_regular_grid_interpolator(self, cells):
        from scipy.interpolate import RegularGridInterpolator

        d = len(cells)
        rng = np.random.default_rng(d)
        grid = GridSpec(tuple(-1.3 - 0.2 * a for a in range(d)),
                        tuple(2.1 + 0.5 * a for a in range(d)), cells)
        lo, hi = np.array(grid.lo), np.array(grid.hi)
        field = rng.random(grid.shape)
        inner = lo + (hi - lo) * rng.random((400, d))
        # Points on the upper face of each axis, and the upper corner.
        faces = [np.where(np.arange(d) == a, hi, inner[:20]) for a in range(d)]
        points = np.vstack([inner, grid.nodes(), *faces, hi[None]])
        ours = GridSampler(grid, points)(field.ravel())
        ref = RegularGridInterpolator(grid.axes(), field, method="linear",
                                      bounds_error=True)(points)
        if d < 3:
            np.testing.assert_array_equal(ours, ref)
        else:
            # SciPy's N-D path multiplies the per-axis weights together first.
            np.testing.assert_allclose(ours, ref, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(GridSampler(grid, grid.nodes())(field.ravel()),
                                      field.ravel())

    @pytest.mark.parametrize("point", [[1.0 + 1e-12, 1.0], [0.5, -1e-12], [np.nan, 0.5]])
    def test_points_outside_the_box_raise(self, point):
        grid = GridSpec((0.0, 0.0), (1.0, 2.0), (8, 8))
        with pytest.raises(DataError, match="leave the grid box"):
            GridSampler(grid, [point])

    def test_solve_rejects_points_outside_the_box(self):
        spec = line_spec(-2.0, 2.0, 16, 0.5, 1.0, lambda x: x >= 0.0, 0.0, horizon=0.1,
                         dt=0.05)
        with pytest.raises(DataError, match="leave the grid box"):
            solve_ibvp(spec, points=[[2.5]])
        with pytest.raises(DataError, match="leave the grid box"):
            solve_ibvp(spec).sample([[-2.5]])


class TestGridSpec:
    def test_spacing_and_nodes(self):
        grid = GridSpec((0.0, -1.0), (1.0, 1.0), (10, 20))
        assert grid.spacing == (0.1, 0.1)
        assert grid.shape == (11, 21)
        nodes = grid.nodes()
        assert nodes.shape == (11 * 21, 2)
        np.testing.assert_allclose(nodes[0], [0.0, -1.0])
        np.testing.assert_allclose(nodes[-1], [1.0, 1.0])

    def test_rejects_too_few_cells(self):
        with pytest.raises(ValueError, match="below minimum"):
            GridSpec((0.0,), (1.0,), (4,))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="below upper"):
            GridSpec((1.0,), (0.0,), (10,))

    def test_rejects_above_three_dimensions(self):
        with pytest.raises(ValueError, match="rejected"):
            GridSpec((0.0,) * 4, (1.0,) * 4, (8,) * 4)

    def test_rejects_node_cap(self):
        # 201^3 = 8.1M nodes: only the node count is computed, nothing allocated.
        with pytest.raises(ValueError, match="cap"):
            GridSpec((0.0,) * 3, (1.0,) * 3, (200,) * 3)

    # Every comparison with NaN is false, so no range check would catch it.
    @pytest.mark.parametrize("lo, hi, name", [
        ((-np.inf,), (2.0,), "lo"), ((np.nan,), (2.0,), "lo"),
        ((0.0,), (np.inf,), "hi"), ((0.0, 0.0), (1.0, np.nan), "hi"),
    ])
    def test_rejects_non_finite_bounds(self, lo, hi, name):
        with pytest.raises(DataError, match=f"^{name} must be finite$"):
            GridSpec(lo, hi, (8,) * len(lo))


class TestBuildMask:
    def test_sign_mask_on_line(self):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        mask = build_mask(grid, identity_barrier(), "super")
        np.testing.assert_array_equal(mask, grid.axes()[0] >= 0.0)

    def test_sub_side_is_complement(self):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        sup = build_mask(grid, identity_barrier(), "super")
        sub = build_mask(grid, identity_barrier(), "sub")
        np.testing.assert_array_equal(sub, ~sup)

    def test_disk_mask_matches_brute_force(self):
        grid = GridSpec((-1.5, -1.5), (1.5, 1.5), (30, 30))
        bar = BarrierProblem(phi=lambda X: 1.0 - X[..., 0] ** 2 - X[..., 1] ** 2)
        mask = build_mask(grid, bar, "super")
        xs, ys = grid.axes()
        count = sum(1 for xv in xs for yv in ys if 1.0 - xv**2 - yv**2 >= 0.0)
        assert int(mask.sum()) == count

    def test_level_override(self):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        mask = build_mask(grid, identity_barrier(), "super", level=1.0)
        np.testing.assert_array_equal(mask, grid.axes()[0] >= 1.0)

    def test_bad_side_rejected(self):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        with pytest.raises(ValueError):
            build_mask(grid, identity_barrier(), "above")

    # A NaN node would be pinned on both sides; no mask is built on a non-finite phi.
    @pytest.mark.parametrize("side", ["super", "sub"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_barrier_node_named(self, side, value):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        bar = BarrierProblem(phi=lambda X: np.where(X[..., 0] >= 1.0, value, X[..., 0]))
        with pytest.raises(DataError, match=rf"^barrier phi is {value} at grid node \[1\.0\]; "):
            build_mask(grid, bar, side)


class TestIbvpSpecValidation:
    @pytest.mark.parametrize("shape", [(9, 9, 1), (9, 9, 3, 1), (8, 9, 2, 1)])
    def test_sigma_with_wrong_leading_shape_rejected(self, shape):
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (8, 8))
        conv = np.zeros(grid.shape + (2,))
        with pytest.raises(DataError, match="sigma shape"):
            IbvpSpec(grid, np.ones(grid.shape, dtype=bool), conv, np.ones(shape), 0.0,
                     1.0, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        conv, sigma = const_fields(grid, 0.0, 1.0)
        sigma[3, 0, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            IbvpSpec(grid, grid.axes()[0] >= 0.0, conv, sigma, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("dirichlet", [0.5, -1.0, np.nan])
    def test_dirichlet_value_must_be_0_or_1(self, dirichlet):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        conv, sigma = const_fields(grid, 0.0, 1.0)
        with pytest.raises(DataError, match="0 or 1"):
            IbvpSpec(grid, grid.axes()[0] >= 0.0, conv, sigma, dirichlet, 1.0, 0.1)

    # A NaN horizon would march 0 steps and an infinite one overflow the
    # step count.
    @pytest.mark.parametrize("horizon, dt, name", [
        (np.nan, 0.1, "horizon"), (np.inf, 0.1, "horizon"),
        (1.0, np.nan, "dt"), (1.0, np.inf, "dt"),
    ])
    def test_non_finite_horizon_or_dt_rejected(self, horizon, dt, name):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        conv, sigma = const_fields(grid, 0.0, 1.0)
        with pytest.raises(DataError, match=f"^{name} must be finite$"):
            IbvpSpec(grid, grid.axes()[0] >= 0.0, conv, sigma, 0.0, horizon, dt)


def factor_spec(ndim, sigma_kind, dirichlet, seed=0):
    """A small spec whose mask cuts every box face and has pinned holes, with
    a random drift and a noise matrix of the given kind."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(tuple(-1.0 - 0.1 * a for a in range(ndim)),
                    tuple(1.0 + 0.2 * a for a in range(ndim)), (9, 10, 8)[:ndim])
    mask = rng.random(grid.shape) < 0.75
    conv = rng.standard_normal(grid.shape + (ndim,))
    sigma = np.zeros(grid.shape + (ndim, ndim))
    if sigma_kind == "diagonal":
        for a in range(ndim):
            sigma[..., a, a] = 0.5 + rng.random(grid.shape)
    elif sigma_kind == "one_pair":
        # Only Sigma_02 is off the diagonal: one cross pair, on axis 0.
        sigma[..., 0, 0] = 0.5 + rng.random(grid.shape)
        sigma[..., 2, 0] = rng.standard_normal(grid.shape)
        sigma[..., 1, 1] = 1.0
        sigma = sigma[..., :2]
    else:
        sigma = rng.standard_normal(grid.shape + (ndim, {"column": 1, "full": 2}[sigma_kind]))
    return IbvpSpec(grid, mask, conv, sigma, dirichlet, 0.1, 1e-2)


class TestAxisFactor:
    """The one-pass factor against the all-node reference construction."""

    @pytest.mark.parametrize("dirichlet", [0.0, 1.0])
    @pytest.mark.parametrize("ndim, sigma_kind", [
        (1, "column"), (2, "diagonal"), (2, "column"), (2, "full"),
        (3, "diagonal"), (3, "column"), (3, "one_pair"), (3, "full"),
    ])
    def test_matches_the_all_node_reference(self, ndim, sigma_kind, dirichlet):
        spec = factor_spec(ndim, sigma_kind, dirichlet)
        for a in range(ndim):
            A, load, sums = _axis_factor(spec, a)
            A_ref, load_ref, sums_ref = reference_factor(spec, a)
            np.testing.assert_array_equal(A.indptr, A_ref.indptr)
            np.testing.assert_array_equal(A.indices, A_ref.indices)
            if a == 0 and (ndim, sigma_kind) in ((3, "column"), (3, "full")):
                # Both cross pairs give axis-0 rows over 16 terms, past which
                # SciPy's index sort is not stable: the reference adds a
                # column's terms in the sort's order, the factor in stencil
                # order, so they agree to rounding of the largest entry.
                tol = 32 * np.finfo(float).eps * abs(reference_rows(spec, a)).max()
                np.testing.assert_allclose(A.data, A_ref.data, rtol=0.0, atol=spec.dt * tol)
                np.testing.assert_allclose(load, load_ref, rtol=0.0, atol=spec.dt * tol)
                np.testing.assert_allclose(sums, sums_ref, rtol=0.0, atol=tol)
            else:
                np.testing.assert_array_equal(A.data, A_ref.data)
                np.testing.assert_array_equal(load, load_ref)
                np.testing.assert_array_equal(sums, sums_ref)

    @pytest.mark.parametrize("k", [1, 2])
    def test_sigma_equals_einsum(self, k):
        # Products summed over k in order are einsum's values for k <= 2.
        spec = factor_spec(3, {1: "column", 2: "full"}[k], 1.0)
        sig = spec.sigma.reshape(spec.grid.n_nodes, 3, k)
        expected = np.einsum("bik,bjk->bij", sig, sig)
        np.testing.assert_array_equal(np.moveaxis(spec.Sigma, -1, 0), expected)


class TestOperatorDependsOnSigmaSigmaT:
    """Two sigmas with the same sigma sigma^T build the same operator rows."""

    @staticmethod
    def _factors(grid, mask, conv, sigma):
        spec = IbvpSpec(grid, mask, conv, sigma, 1.0, 0.1, 1e-2)
        return [_axis_factor(spec, a) for a in range(grid.ndim)]

    @settings(max_examples=30, deadline=None)
    @given(ndim=st.integers(1, 3), k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_zero_noise_column_and_rotation_leave_the_rows(self, ndim, k, seed):
        rng = np.random.default_rng(seed)
        grid = GridSpec((-1.0,) * ndim, (1.0,) * ndim, (8,) * ndim)
        mask = rng.random(grid.shape) < 0.7
        conv = rng.standard_normal(grid.shape + (ndim,))
        sigma = rng.standard_normal(grid.shape + (ndim, k))
        factors = self._factors(grid, mask, conv, sigma)
        # A zero column adds exact zeros to every sum of sigma sigma^T.
        padded = np.concatenate([sigma, np.zeros(grid.shape + (ndim, 1))], axis=-1)
        for (A, load, sums), (A_pad, load_pad, sums_pad) in zip(
                factors, self._factors(grid, mask, conv, padded)):
            assert (A != A_pad).nnz == 0
            np.testing.assert_array_equal(load, load_pad)
            np.testing.assert_array_equal(sums, sums_pad)
        # An orthogonal Q leaves sigma Q Q^T sigma^T equal up to rounding: each
        # operator entry moves by at most 1e-14 of the largest, and a row's
        # load and sum add at most 3^ndim entries.
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        spec = IbvpSpec(grid, mask, conv, sigma, 1.0, 0.1, 1e-2)
        for a, ((A, load, sums), (A_rot, load_rot, sums_rot)) in enumerate(zip(
                factors, self._factors(grid, mask, conv, sigma @ Q))):
            tol = 1e-14 * abs(reference_rows(spec, a)).max()
            assert abs(A - A_rot).max() <= spec.dt * tol + np.finfo(float).eps
            np.testing.assert_allclose(load, load_rot, rtol=0.0, atol=3 ** ndim * spec.dt * tol)
            np.testing.assert_allclose(sums, sums_rot, rtol=0.0, atol=3 ** ndim * tol)


class TestStep:
    def test_zero_operator_leaves_field_unchanged(self):
        spec = line_spec(-2.0, 2.0, 16, 0.0, 0.0, lambda x: x >= 0.0, 0.0)
        start = interior_values(spec)
        out, _ = ThetaStepper(spec, 0).step(start)
        np.testing.assert_array_equal(out, start)

    def test_constants_are_solutions(self):
        spec = line_spec(-2.0, 2.0, 16, 0.7, 1.3, lambda x: x >= 0.0, 1.0)
        stepper = ThetaStepper(spec, 0)
        values = np.ones(int(spec.interior_mask.sum()))
        for _ in range(5):
            values, _ = stepper.step(values)
        np.testing.assert_allclose(values, 1.0, atol=1e-12)

    def test_half_line_heat_kernel(self):
        # Pure diffusion F_t = F''/2 on x > 0, absorbed at 0, unit start:
        # F(x, T) = erf(x / sqrt(2 T)).
        spec = line_spec(0.0, 6.0, 600, 0.0, 1.0, lambda x: x > 0.0, 0.0)
        series = solve_ibvp(spec, snapshot_times=[1.0])
        value = float(series.sample([[1.0]])[0])
        assert value == pytest.approx(HEAT_HALFLINE, abs=5e-3)


class TestSolveIbvp:
    def test_zero_horizon_returns_initial_snapshot(self):
        for g in (0.0, 1.0):
            spec = line_spec(-2.0, 2.0, 16, 0.5, 1.0, lambda x: x >= 0.0, g, horizon=0.0)
            series = solve_ibvp(spec, points=spec.grid.nodes())
            assert list(series.times) == [0.0]
            expected = initial_field(spec)
            np.testing.assert_array_equal(series.values[:, 0], expected.ravel())
            np.testing.assert_array_equal(series.final_field, expected)

    def test_times_strictly_increasing_from_zero(self):
        spec = line_spec(-2.0, 2.0, 32, 0.5, 1.0, lambda x: x >= 0.0, 0.0,
                         horizon=0.5, dt=1e-2)
        series = solve_ibvp(spec, snapshot_times=np.linspace(0, 0.5, 11))
        assert series.times[0] == 0.0
        assert np.all(np.diff(series.times) > 0)

    def test_max_principle_keeps_unit_interval(self):
        spec = line_spec(-2.0, 2.0, 64, -1.5, 0.8, lambda x: x >= 0.0, 1.0)
        series = solve_ibvp(spec, snapshot_times=[0.5, 1.0])
        assert series.diagnostics.field_min >= -1e-8
        assert series.diagnostics.field_max <= 1.0 + 1e-8

    def test_exit_shaped_problem_nondecreasing_in_time(self):
        spec = line_spec(-2.0, 2.0, 64, 0.3, 1.0, lambda x: x >= 0.0, 1.0)
        series = solve_ibvp(spec, snapshot_times=np.linspace(0, 1, 21),
                            points=spec.grid.nodes())
        assert series.values.shape == (spec.grid.n_nodes, 21)
        diffs = np.diff(series.values, axis=1)
        assert diffs.min() >= -1e-12

    def test_complement_linearity(self):
        mask_fn = lambda x: x >= 0.0
        spec0 = line_spec(-2.0, 2.0, 64, 0.4, 1.0, mask_fn, 0.0)
        spec1 = line_spec(-2.0, 2.0, 64, 0.4, 1.0, mask_fn, 1.0)
        times = np.linspace(0, 1, 11)
        s0 = solve_ibvp(spec0, snapshot_times=times, points=spec0.grid.nodes())
        s1 = solve_ibvp(spec1, snapshot_times=times, points=spec1.grid.nodes())
        total = s0.values + s1.values
        assert total.shape == (spec0.grid.n_nodes, 11)
        assert np.max(np.abs(total - 1.0)) < 1e-6

    def test_dt_refinement_consistency(self):
        # First-order stepping: halving dt should move values by O(dt).
        coarse = line_spec(0.0, 6.0, 300, 1.0, 1.0, lambda x: x > 0.0, 0.0, dt=2e-3)
        fine = line_spec(0.0, 6.0, 300, 1.0, 1.0, lambda x: x > 0.0, 0.0, dt=1e-3)
        vc = float(solve_ibvp(coarse, snapshot_times=[1.0]).sample([[1.0]])[0])
        vf = float(solve_ibvp(fine, snapshot_times=[1.0]).sample([[1.0]])[0])
        assert abs(vc - vf) < 2e-3

    def test_residuals_reported(self):
        spec = line_spec(-2.0, 2.0, 32, 0.5, 1.0, lambda x: x >= 0.0, 0.0,
                         horizon=0.1, dt=1e-2)
        series = solve_ibvp(spec)
        assert series.diagnostics.max_residual <= 1e-10
        assert series.diagnostics.n_steps == 10

    def test_iterations_count_one_direct_solve_per_step(self):
        spec = line_spec(-2.0, 2.0, 32, 0.5, 1.0, lambda x: x >= 0.0, 0.0,
                         horizon=0.1, dt=1e-2)
        diag = solve_ibvp(spec).diagnostics
        assert diag.total_iterations == diag.n_steps == 10


class TestCrossDerivativeStencil:
    def test_bilinear_field_reproduces_mixed_trace(self):
        # For F = x*y and constant Sigma = [[1, r], [r, 1]], the operator
        # value is r at interior nodes (diagonal terms vanish on F).
        r = 0.6
        grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (10, 10))
        mask = np.ones(grid.shape, dtype=bool)
        conv = np.zeros(grid.shape + (2,))
        sigma = const_sigma(grid, [[1.0, r], [r, 1.0]])
        spec = IbvpSpec(grid, mask, conv, sigma, 0.0, 1.0, 0.1)
        # Every node is interior, so each factor's A is I - dt L_a.
        L = sum(sp.identity(grid.n_nodes) - _axis_factor(spec, a)[0] for a in range(2)) / spec.dt
        xs, ys = np.meshgrid(*grid.axes(), indexing="ij")
        F = (xs * ys).ravel()
        out = (L @ F).reshape(grid.shape)
        np.testing.assert_allclose(out[1:-1, 1:-1], r, atol=1e-10)


class TestSensitivityProbe:
    def test_reflecting_truncation_is_flagged(self):
        # A box that stops short of the absorbing set reflects instead of
        # absorbing; doubling the box exposes the bias.
        small = line_spec(0.5, 4.0, 64, 0.0, 1.0, lambda x: x > 0.4, 0.0)
        wide = line_spec(-1.0, 4.0, 100, 0.0, 1.0, lambda x: x > 0.4, 0.0)
        sensitivity = _probe_sensitivity(small, wide, np.array([[1.0]]))
        assert sensitivity > PROBE_TOLERANCE
        assert sensitivity > 1e-2

    def test_well_separated_truncation_passes(self):
        base = line_spec(-0.01, 8.0, 200, 1.0, 1.0, lambda x: x >= 0.0, 0.0)
        wide = line_spec(-0.01, 16.0, 400, 1.0, 1.0, lambda x: x >= 0.0, 0.0)
        sensitivity = _probe_sensitivity(base, wide, np.array([[1.0]]))
        assert sensitivity <= PROBE_TOLERANCE
        assert sensitivity < 1e-6

    def test_truncation_face_detection(self):
        grid = GridSpec((-2.0,), (2.0,), (16,))
        x = grid.axes()[0]
        # x^2 < 1 is enclosed by pinned nodes: no probe.
        assert _probe_grids(grid, x ** 2 < 1.0) is None
        # x >= 0 cuts the high face only; every node cuts both.
        for mask, doubled in ((x >= 0.0, GridSpec((-2.0,), (6.0,), (16,))),
                              (x >= -5.0, GridSpec((-6.0,), (6.0,), (24,)))):
            coarse, wide = _probe_grids(grid, mask)
            assert coarse == GridSpec((-2.0,), (2.0,), (8,))
            assert wide == doubled


class TestExports:
    def test_snapshot_csv_round_trip(self, tmp_path):
        grid = GridSpec((0.0,), (1.0,), (8,))
        field = np.linspace(0, 1, 9)
        path = tmp_path / "snap.csv"
        export_snapshot_csv(grid, field, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,value"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_series_json_layout(self):
        spec = line_spec(-2.0, 2.0, 16, 0.0, 1.0, lambda x: x >= 0.0, 0.0,
                         horizon=0.1, dt=0.05)
        series = solve_ibvp(spec, snapshot_times=[0.05, 0.1], points=spec.grid.nodes())
        doc = series_to_json(series)
        assert doc["grid"]["cells"] == [16]
        # Only the final snapshot, at the horizon, is kept.
        assert len(doc["snapshots"]) == 1
        assert doc["snapshots"][0]["time"] == pytest.approx(0.1)
        assert doc["snapshots"][0]["values"] == series.final_field.ravel().tolist()
        # Node samples at the horizon are the kept field itself.
        assert doc["snapshots"][0]["values"] == series.values[:, -1].tolist()

    def test_diagnostics_json_report(self):
        spec = line_spec(-2.0, 2.0, 16, 0.0, 1.0, lambda x: x >= 0.0, 0.0,
                         horizon=0.1, dt=0.05)
        series = solve_ibvp(spec)
        report = series.diagnostics.as_dict()
        assert report["n_steps"] == 2
        assert report["max_residual"] <= 1e-10


class TestStepperInternals:
    def test_warm_start_converges_immediately_on_steady_state(self):
        spec = line_spec(-2.0, 2.0, 16, 0.0, 0.0, lambda x: x >= 0.0, 0.0)
        stepper = ThetaStepper(spec, 0)
        out, residual = stepper.step(interior_values(spec))
        assert residual <= 1e-10
        np.testing.assert_array_equal(out, interior_values(spec))

    def test_singular_matrix_raises_solver_error(self, monkeypatch):
        def singular(*_args, **_kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(pde_engine.spla, "splu", singular)
        spec = line_spec(-2.0, 2.0, 16, 0.0, 1.0, lambda x: x >= 0.0, 0.0)
        with pytest.raises(SolverError, match="singular"):
            ThetaStepper(spec, 0)

    def test_factor_solve_missing_the_residual_raises_solver_error(self, monkeypatch):
        # A factor whose solve is off by 1e-6 fails the residual check of its step.
        class Perturbed:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return self.lu.solve(b) + 1e-6

        splu = spla.splu
        monkeypatch.setattr(pde_engine.spla, "splu",
                            lambda *args, **kwargs: Perturbed(splu(*args, **kwargs)))
        with pytest.raises(SolverError, match="failed to reach residual"):
            solve_ibvp(ball_exit_spec())

    def test_axis_factors_have_no_fill_on_shipped_2d_grid(self):
        # Without cross terms each axis factor is a set of independent
        # tridiagonal line systems: the minimum-degree order on A^T + A with
        # diagonal pivots factors it with no fill, so L + U (L with its unit
        # diagonal) holds nnz(A) + n entries.
        ex = make_example("double_integrator")
        num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=ex.cells, dt=ex.dt)
        spec = _assemble(ex.system, ex.barrier, ex.policy, _padded_grid(num), 0.0,
                         "super", 1.0, ex.horizon, ex.dt)
        for axis in range(2):
            stepper = ThetaStepper(spec, axis)
            assert stepper._lu.L.nnz + stepper._lu.U.nnz == stepper.A.nnz + stepper.A.shape[0]

    def test_direct_steps_match_spsolve_with_cross_diffusion(self):
        # Off-diagonal diffusion puts positive off-diagonal entries in the
        # axis-0 factor, which holds the cross terms, so it is no M-matrix;
        # the relaxed pivot threshold must still solve it.
        grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (20, 24))
        nodes = grid.nodes()
        mask = (np.sum(nodes ** 2, axis=1) < 0.8).reshape(grid.shape)
        conv = np.stack([nodes[:, 1], -0.5 * nodes[:, 0]], axis=1).reshape(grid.shape + (2,))
        sigma = const_sigma(grid, [[1.0, 0.6], [0.6, 0.5]])
        spec = IbvpSpec(grid, mask, conv, sigma, 1.0, 0.1, 1e-2)
        assert _axis_factor(spec, 1)[0].nnz < _axis_factor(spec, 0)[0].nnz
        marched = split_steps(spec, interior_values(spec), 5)
        for values, expected in zip(marched, full_node_steps(spec, 5, split=True)):
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)

    def test_3d_split_steps_match_full_node_spsolve(self):
        spec = ball_exit_spec()
        marched = split_steps(spec, interior_values(spec), 5)
        for values, expected in zip(marched, full_node_steps(spec, 5, split=True)):
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)
        diag = solve_ibvp(spec).diagnostics
        assert diag.total_iterations == 3 * diag.n_steps == 30

    def test_split_shift_from_the_unsplit_step_is_first_order(self):
        # Splitting moves the values against the unsplit backward-Euler step
        # by O(dt): 0.0165 after 5 steps of 1e-2 on this grid, and half that
        # after 10 steps of 5e-3.
        def shift(dt, n_steps):
            spec = ball_exit_spec(dt=dt)
            pairs = zip(full_node_steps(spec, n_steps, split=True),
                        full_node_steps(spec, n_steps))
            return max(np.max(np.abs(a - b)) for a, b in pairs)

        coarse = shift(1e-2, 5)
        assert 0.0 < coarse <= 0.02
        assert 0.45 <= shift(5e-3, 10) / coarse <= 0.55

    @pytest.mark.parametrize("eps", [{1: 1e-3}, {0: 2e-3, 1: 1e-3}])
    def test_row_sum_defect_sums_the_axis_factors(self, monkeypatch, eps):
        # A row perturbed in any factor moves F + G - 1 by dt times its defect,
        # so the reported defect is the sum over the factors.
        original = pde_engine._axis_factor

        def perturbed(spec, axis):
            # The first row's own entry of L_a loses eps: A gains dt eps there.
            A, load, sums = original(spec, axis)
            A, sums = A.tolil(), sums.copy()
            A[0, 0] += spec.dt * eps.get(axis, 0.0)
            sums[0] -= eps.get(axis, 0.0)
            return A.tocsr(), load, sums

        monkeypatch.setattr(pde_engine, "_axis_factor", perturbed)
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (16, 16))
        conv, sigma = const_fields(grid, 0.5, 1.0)
        mask = grid.nodes()[:, 0].reshape(grid.shape) >= 0.0
        spec = IbvpSpec(grid, mask, conv, sigma, 1.0, 0.1, 1e-2)
        diag = solve_ibvp(spec).diagnostics
        assert diag.row_sum_defect == pytest.approx(sum(eps.values()), rel=1e-9)
