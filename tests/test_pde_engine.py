import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from safeprob.distributions import NumericsConfig, _assemble, _padded_grid
from safeprob.errors import DataError, SolverError
from safeprob.pde_engine import (
    LINEAR_RTOL,
    SensitivityProbe,
    ThetaStepper,
    _assemble_operator,
    has_truncation_faces,
)

from conftest import HEAT_HALFLINE, identity_barrier


def const_fields(grid, mu, sig2, axis=0):
    shape = grid.shape
    n = grid.ndim
    conv = np.zeros(shape + (n,))
    conv[..., axis] = mu
    diff = np.zeros(shape + (n, n))
    for a in range(n):
        diff[..., a, a] = sig2
    return conv, diff


def line_spec(lo, hi, cells, mu, sig2, mask_fn, dirichlet, init_from_mask=True,
              horizon=1.0, dt=1e-3):
    grid = GridSpec((lo,), (hi,), (cells,))
    x = grid.axes()[0]
    mask = mask_fn(x)
    conv, diff = const_fields(grid, mu, sig2)
    if init_from_mask:
        init = np.where(mask, 1.0 - dirichlet, dirichlet)
    else:
        init = np.full(grid.shape, dirichlet)
    return IbvpSpec(grid, mask, conv, diff, dirichlet, init, horizon, dt)


def interior_values(spec):
    return spec.initial_field.ravel()[spec.interior_mask.ravel()]


def full_node_steps(spec, n_steps):
    """Reference march over every node: Dirichlet rows are identity rows of
    ``I - dt L`` and each step is one ``spsolve``; yields the interior values."""
    pinned = ~spec.interior_mask.ravel()
    A = (sp.identity(spec.grid.n_nodes) - spec.dt * _assemble_operator(spec)).tocsc()
    field = spec.initial_field.ravel()
    for _ in range(n_steps):
        b = field.copy()
        b[pinned] = spec.dirichlet_value
        field = spla.spsolve(A, b)
        yield field[~pinned]


def ball_exit_spec(cells=12, horizon=0.1, dt=1e-2):
    """Exit from the unit ball under a constant drift on a small 3D grid."""
    grid = GridSpec((-1.5,) * 3, (1.5,) * 3, (cells,) * 3)
    mask = np.sum(grid.nodes() ** 2, axis=1).reshape(grid.shape) < 1.0
    conv, diff = const_fields(grid, 0.4, 0.5)
    return IbvpSpec(grid, mask, conv, diff, 1.0, np.where(mask, 0.0, 1.0), horizon, dt)


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


class TestIbvpSpecValidation:
    def _parts(self):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        mask = grid.axes()[0] >= 0.0
        conv, diff = const_fields(grid, 0.0, 1.0)
        init = np.where(mask, 1.0, 0.0)
        return grid, mask, conv, diff, init

    def test_asymmetric_diffusion_rejected(self):
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (8, 8))
        mask = np.ones(grid.shape, dtype=bool)
        conv = np.zeros(grid.shape + (2,))
        diff = np.zeros(grid.shape + (2, 2))
        diff[..., 0, 1] = 1.0
        with pytest.raises(DataError, match="symmetric"):
            IbvpSpec(grid, mask, conv, diff, 0.0, np.ones(grid.shape), 1.0, 0.1)

    def test_non_indicator_initial_rejected(self):
        grid, mask, conv, diff, init = self._parts()
        with pytest.raises(DataError, match="0 or 1"):
            IbvpSpec(grid, mask, conv, diff, 0.0, init * 0.5, 1.0, 0.1)

    def test_initial_must_match_dirichlet(self):
        grid, mask, conv, diff, _ = self._parts()
        init = np.ones(grid.shape)
        with pytest.raises(DataError, match="disagrees"):
            IbvpSpec(grid, mask, conv, diff, 0.0, init, 1.0, 0.1)

    def test_non_psd_diffusion_rejected(self):
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (8, 8))
        mask = np.ones(grid.shape, dtype=bool)
        conv = np.zeros(grid.shape + (2,))
        diff = np.zeros(grid.shape + (2, 2))
        diff[..., 0, 1] = 1.0
        diff[..., 1, 0] = 1.0
        with pytest.raises(DataError, match="PSD"):
            IbvpSpec(grid, mask, conv, diff, 0.0, np.ones(grid.shape), 1.0, 0.1)


class TestStep:
    def test_zero_operator_leaves_field_unchanged(self):
        spec = line_spec(-2.0, 2.0, 16, 0.0, 0.0, lambda x: x >= 0.0, 0.0)
        start = interior_values(spec)
        out, _ = ThetaStepper(spec).step(start)
        np.testing.assert_array_equal(out, start)

    def test_constants_are_solutions(self):
        spec = line_spec(-2.0, 2.0, 16, 0.7, 1.3, lambda x: x >= 0.0, 1.0,
                         init_from_mask=False)
        stepper = ThetaStepper(spec)
        values = interior_values(spec)
        for _ in range(5):
            values, _ = stepper.step(values)
        np.testing.assert_allclose(values, 1.0, atol=1e-12)

    def test_half_line_heat_kernel(self):
        # Pure diffusion F_t = F''/2 on x > 0, absorbed at 0, unit start:
        # F(x, T) = erf(x / sqrt(2 T)).
        spec = line_spec(0.0, 6.0, 600, 0.0, 1.0, lambda x: x > 0.0, 0.0)
        series = solve_ibvp(spec, snapshot_times=[1.0])
        value = float(series.sample([[1.0]], -1)[0])
        assert value == pytest.approx(HEAT_HALFLINE, abs=5e-3)


class TestSolveIbvp:
    def test_zero_horizon_returns_initial_snapshot(self):
        spec = line_spec(-2.0, 2.0, 16, 0.5, 1.0, lambda x: x >= 0.0, 0.0, horizon=0.0)
        series = solve_ibvp(spec)
        assert list(series.times) == [0.0]
        np.testing.assert_array_equal(series.fields[0], spec.initial_field)

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
        series = solve_ibvp(spec, snapshot_times=np.linspace(0, 1, 21))
        diffs = np.diff(series.fields, axis=0)
        assert diffs.min() >= -1e-12

    def test_complement_linearity(self):
        mask_fn = lambda x: x >= 0.0
        spec0 = line_spec(-2.0, 2.0, 64, 0.4, 1.0, mask_fn, 0.0)
        spec1 = line_spec(-2.0, 2.0, 64, 0.4, 1.0, mask_fn, 1.0)
        times = np.linspace(0, 1, 11)
        s0 = solve_ibvp(spec0, snapshot_times=times)
        s1 = solve_ibvp(spec1, snapshot_times=times)
        total = s0.fields + s1.fields
        assert np.max(np.abs(total - 1.0)) < 1e-6

    def test_dt_refinement_consistency(self):
        # First-order stepping: halving dt should move values by O(dt).
        coarse = line_spec(0.0, 6.0, 300, 1.0, 1.0, lambda x: x > 0.0, 0.0, dt=2e-3)
        fine = line_spec(0.0, 6.0, 300, 1.0, 1.0, lambda x: x > 0.0, 0.0, dt=1e-3)
        vc = float(solve_ibvp(coarse, snapshot_times=[1.0]).sample([[1.0]], -1)[0])
        vf = float(solve_ibvp(fine, snapshot_times=[1.0]).sample([[1.0]], -1)[0])
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
        diff = np.zeros(grid.shape + (2, 2))
        diff[..., 0, 0] = 1.0
        diff[..., 1, 1] = 1.0
        diff[..., 0, 1] = r
        diff[..., 1, 0] = r
        init = np.zeros(grid.shape)
        spec = IbvpSpec(grid, mask, conv, diff, 0.0, init, 1.0, 0.1)
        L = _assemble_operator(spec)
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
        probe = SensitivityProbe(coarse=small, doubled=wide,
                                 points=np.array([[1.0]]))
        series = solve_ibvp(small, snapshot_times=[1.0], sensitivity_probe=probe)
        assert series.diagnostics.boundary_flagged
        assert series.diagnostics.boundary_sensitivity > 1e-2

    def test_well_separated_truncation_passes(self):
        base = line_spec(-0.01, 8.0, 200, 1.0, 1.0, lambda x: x >= 0.0, 0.0)
        wide = line_spec(-0.01, 16.0, 400, 1.0, 1.0, lambda x: x >= 0.0, 0.0)
        probe = SensitivityProbe(coarse=base, doubled=wide,
                                 points=np.array([[1.0]]))
        series = solve_ibvp(base, snapshot_times=[1.0], sensitivity_probe=probe)
        assert not series.diagnostics.boundary_flagged
        assert series.diagnostics.boundary_sensitivity < 1e-6

    def test_truncation_face_detection(self):
        grid = GridSpec((-2.0,), (2.0,), (8,))
        mask = grid.axes()[0] >= 0.0
        assert has_truncation_faces(grid, mask) == [(0, +1)]
        full = np.ones(grid.shape, dtype=bool)
        assert set(has_truncation_faces(grid, full)) == {(0, -1), (0, +1)}
        enclosed = np.zeros(grid.shape, dtype=bool)
        enclosed[3:6] = True
        assert has_truncation_faces(grid, enclosed) == []


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
        series = solve_ibvp(spec, snapshot_times=[0.05, 0.1])
        doc = series_to_json(series)
        assert doc["grid"]["cells"] == [16]
        # Only the final snapshot, at the horizon, is kept.
        assert len(doc["snapshots"]) == 1
        assert doc["snapshots"][0]["time"] == pytest.approx(0.1)
        assert doc["snapshots"][0]["values"] == series.fields[-1].tolist()

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
        stepper = ThetaStepper(spec)
        out, residual = stepper.step(interior_values(spec))
        assert residual <= 1e-10
        np.testing.assert_array_equal(out, interior_values(spec))

    def test_iterative_branch_matches_direct(self, monkeypatch):
        # A 3D grid marches with Jacobi-BiCGSTAB; raising the axis threshold
        # puts the same spec on the direct LU path.
        spec = ball_exit_spec()
        iterative = solve_ibvp(spec, snapshot_times=[0.05, 0.1])
        monkeypatch.setattr(pde_engine, "_KRYLOV_MIN_NDIM", 4)
        direct = solve_ibvp(spec, snapshot_times=[0.05, 0.1])
        assert direct.diagnostics.total_iterations == direct.diagnostics.n_steps
        np.testing.assert_allclose(iterative.fields, direct.fields, rtol=0.0, atol=1e-8)
        diag = iterative.diagnostics
        assert diag.max_residual <= 1e-10
        assert diag.total_iterations >= diag.n_steps == 10

    def test_krylov_nonconvergence_raises_solver_error(self, monkeypatch):
        def no_direct_solve(*args, **kwargs):
            raise AssertionError("the Krylov path must not fall back to a direct solve")

        for name in ("splu", "spsolve"):
            monkeypatch.setattr(pde_engine.spla, name, no_direct_solve)
        monkeypatch.setattr(pde_engine, "LINEAR_MAXITER", 1)
        with pytest.raises(SolverError, match="in 1 iterations"):
            solve_ibvp(ball_exit_spec())

    def test_singular_matrix_raises_solver_error(self, monkeypatch):
        def singular(*_args, **_kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(pde_engine.spla, "splu", singular)
        spec = line_spec(-2.0, 2.0, 16, 0.0, 1.0, lambda x: x >= 0.0, 0.0)
        with pytest.raises(SolverError, match="singular"):
            ThetaStepper(spec)

    def test_symmetric_order_cuts_factor_fill_on_shipped_2d_grid(self):
        # The minimum-degree order on A^T + A with diagonal pivots fills the
        # factor of the shipped double_integrator interior step matrix at
        # 0.59 times the default COLAMD order with partial pivoting.
        ex = make_example("double_integrator")
        num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=ex.cells, dt=ex.dt)
        spec = _assemble(ex.system, ex.barrier, ex.policy, _padded_grid(num), 0.0,
                         "super", 1.0, ex.horizon, ex.dt)
        stepper = ThetaStepper(spec)
        default = spla.splu(stepper.A.tocsc())
        fill = stepper._lu.L.nnz + stepper._lu.U.nnz
        assert fill <= 0.75 * (default.L.nnz + default.U.nnz)

    def test_direct_steps_match_spsolve_with_cross_diffusion(self):
        # Off-diagonal diffusion puts positive off-diagonal entries in A, so
        # it is no M-matrix; the relaxed pivot threshold must still solve it.
        grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (20, 24))
        nodes = grid.nodes()
        mask = (np.sum(nodes ** 2, axis=1) < 0.8).reshape(grid.shape)
        conv = np.stack([nodes[:, 1], -0.5 * nodes[:, 0]], axis=1).reshape(grid.shape + (2,))
        diff = np.zeros(grid.shape + (2, 2))
        diff[..., 0, 0] = 1.0
        diff[..., 1, 1] = 0.5
        diff[..., 0, 1] = diff[..., 1, 0] = 0.6
        spec = IbvpSpec(grid, mask, conv, diff, 1.0, np.where(mask, 0.0, 1.0), 0.1, 1e-2)
        stepper = ThetaStepper(spec)
        values = interior_values(spec)
        for expected in full_node_steps(spec, 5):
            values, residual = stepper.step(values)
            assert residual <= LINEAR_RTOL
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)

    def test_krylov_steps_match_full_node_spsolve(self):
        spec = ball_exit_spec()
        stepper = ThetaStepper(spec)
        assert stepper._lu is None
        values = interior_values(spec)
        for expected in full_node_steps(spec, 5):
            values, residual = stepper.step(values)
            assert residual <= LINEAR_RTOL
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-8)
        # The stop rule is relative to the full-node right-hand side, pinned
        # rows included: the full-node march took the same 54 applications.
        assert stepper.solves == 54
