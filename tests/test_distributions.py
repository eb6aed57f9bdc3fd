import contextlib
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from safeprob import (
    GridSpec,
    NumericsConfig,
    Policy,
    QuerySpec,
    convergence_cdf,
    entry_time_cdf,
    exit_time_cdf,
    invariance_ccdf,
    make_example,
    solve_ibvp,
    summary_stats,
)
from safeprob import distributions
from safeprob.cli import main
from safeprob.distributions import (
    KIND_TABLE,
    KINDS,
    SafeProbWarning,
    _assemble,
    _padded_grid,
    event_time_cdf,
    monotonicity_violation,
    solve_distribution,
)
from safeprob.errors import DataError, InfeasibilityError, SolverError
from safeprob.mc_oracle import analytic_first_passage

from conftest import (
    CONFIG_DIR,
    CONVERGENCE_RECOVERY,
    ENTRY_RECOVERY,
    EXIT_DRIFTED,
    EXIT_DRIFTLESS,
    INVARIANCE_DRIFTED,
    assert_no_child_left,
    pin_cpus,
)


def bm_numerics(lo=0.0, hi=8.0, cells=800, dt=1e-3, **kw):
    return NumericsConfig(box_lo=(lo,), box_hi=(hi,), cells=(cells,), dt=dt, **kw)


@pytest.fixture(scope="module")
def bm():
    return make_example("drifted_bm_1d")


@pytest.fixture(scope="module")
def invariance_result(bm):
    q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=bm_numerics())
    return invariance_ccdf(bm.system, bm.barrier, bm.policy, q)


@pytest.fixture(scope="module")
def exit_result(bm):
    q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=bm_numerics())
    return exit_time_cdf(bm.system, bm.barrier, bm.policy, q)


@pytest.fixture(scope="module")
def recovery_results(bm):
    q = QuerySpec(states=[[-1.0]], horizon=1.0, numerics=bm_numerics(lo=-8.0, hi=0.0))
    entry = entry_time_cdf(bm.system, bm.barrier, bm.policy, q)
    conv = convergence_cdf(bm.system, bm.barrier, bm.policy, q)
    return entry, conv


class TestInitialData:
    def test_invariance_is_one_at_time_zero_inside(self, invariance_result):
        assert invariance_result.values[0, 0] == 1.0

    def test_exit_is_zero_at_time_zero_inside(self, exit_result):
        assert exit_result.values[0, 0] == 0.0

    def test_convergence_is_one_at_time_zero_outside(self, recovery_results):
        _, conv = recovery_results
        assert conv.values[0, 0] == 1.0

    def test_entry_is_zero_at_time_zero_outside(self, recovery_results):
        entry, _ = recovery_results
        assert entry.values[0, 0] == 0.0

    def test_zero_horizon_query(self, bm):
        q = QuerySpec(states=[[1.0]], horizon=0.0, numerics=bm_numerics())
        res = invariance_ccdf(bm.system, bm.barrier, bm.policy, q)
        assert list(res.times) == [0.0]
        assert res.values[0, 0] == 1.0


class TestDriftedBrownianOracles:
    def test_invariance_value(self, invariance_result):
        assert invariance_result.values[0, -1] == pytest.approx(
            INVARIANCE_DRIFTED, abs=5e-3)

    def test_exit_value(self, exit_result):
        assert exit_result.values[0, -1] == pytest.approx(EXIT_DRIFTED, abs=5e-3)

    def test_exit_curve_sup_error(self, exit_result):
        reference = analytic_first_passage(1.0, 1.0, 1.0, 0.0, exit_result.times)
        assert np.max(np.abs(exit_result.values[0] - reference)) <= 5e-3

    def test_recovery_values(self, recovery_results):
        entry, conv = recovery_results
        assert entry.values[0, -1] == pytest.approx(ENTRY_RECOVERY, abs=5e-3)
        assert conv.values[0, -1] == pytest.approx(CONVERGENCE_RECOVERY, abs=5e-3)

    def test_driftless_reflection(self):
        bm = make_example("drifted_bm_1d")
        driftless = type(bm.system)(
            n=1, m=1, k=1,
            f=lambda X: np.zeros(X.shape[:-1] + (1,)),
            g=bm.system.g, sigma=bm.system.sigma)
        q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=bm_numerics(lo=-4.0))
        res = exit_time_cdf(driftless, bm.barrier, bm.policy, q)
        assert res.values[0, -1] == pytest.approx(EXIT_DRIFTLESS, abs=5e-3)


class TestIdentities:
    def test_complementarity_invariance_exit(self, invariance_result, exit_result):
        total = invariance_result.values + exit_result.values
        assert np.max(np.abs(total - 1.0)) <= 1e-6

    def test_complementarity_recovery(self, recovery_results):
        entry, conv = recovery_results
        total = entry.values + conv.values
        assert np.max(np.abs(total - 1.0)) <= 1e-6

    def test_kind_table_pairs_complement(self, bm):
        # Each side holds one kind pair: Dirichlet values summing to 1 and
        # opposite time directions, whose zero-horizon fields sum to 1 at
        # every node.  validate's complementarity bound rests on this.
        grid = _padded_grid(bm_numerics(cells=80))
        for side in ("super", "sub"):
            pair = [KIND_TABLE[k] for k in KINDS if KIND_TABLE[k].side == side]
            assert len(pair) == 2
            assert pair[0].dirichlet + pair[1].dirichlet == 1.0
            assert pair[0].increasing != pair[1].increasing
            spec = _assemble(bm.system, bm.barrier, bm.policy, grid, 0.0, side, 1e-2)
            init = [solve_ibvp(spec.with_data(k.dirichlet, 0.0)).final_field for k in pair]
            assert np.array_equal(init[0] + init[1], np.ones(grid.shape))

    def test_monotone_tabulations(self, invariance_result, exit_result, recovery_results):
        entry, conv = recovery_results
        for res in (invariance_result, exit_result, entry, conv):
            assert monotonicity_violation(res) <= 1e-10

    def test_invariance_nonincreasing_in_level(self, bm):
        values = []
        for level in (0.0, 0.25, 0.5):
            q = QuerySpec(states=[[1.0]], horizon=1.0, level=level,
                          numerics=bm_numerics())
            res = invariance_ccdf(bm.system, bm.barrier, bm.policy, q)
            values.append(res.values[0, -1])
        assert values[0] >= values[1] >= values[2]

    def test_convergence_nondecreasing_in_level(self, bm):
        values = []
        for level in (-0.5, 0.0, 0.5):
            q = QuerySpec(states=[[-1.0]], horizon=1.0, level=level,
                          numerics=bm_numerics(lo=-8.0, hi=1.0, cells=900))
            res = convergence_cdf(bm.system, bm.barrier, bm.policy, q)
            values.append(res.values[0, -1])
        assert values[0] < values[1] < values[2]

    def test_range_invariant(self, invariance_result, exit_result):
        for res in (invariance_result, exit_result):
            assert res.values.min() >= -1e-8
            assert res.values.max() <= 1.0 + 1e-8


class TestQueryHandling:
    def test_wrong_side_query_warns_and_pins_value(self, bm):
        q = QuerySpec(states=[[-0.5]], horizon=0.5,
                      numerics=bm_numerics(lo=-1.0, hi=4.0, cells=500))
        with pytest.warns(SafeProbWarning, match="wrong side"):
            res = invariance_ccdf(bm.system, bm.barrier, bm.policy, q)
        assert np.all(res.values == 0.0)
        with pytest.warns(SafeProbWarning, match="wrong side"):
            res = exit_time_cdf(bm.system, bm.barrier, bm.policy, q)
        assert np.all(res.values == 1.0)

    def test_batch_states_share_one_solve(self, bm):
        q = QuerySpec(states=[[0.5], [1.0], [2.0]], horizon=1.0,
                      numerics=bm_numerics())
        res = exit_time_cdf(bm.system, bm.barrier, bm.policy, q)
        assert res.values.shape == (3, len(res.times))
        # Deeper starts exit later: CDF decreasing in the start gap.
        assert res.values[0, -1] > res.values[1, -1] > res.values[2, -1]
        for i, x0 in enumerate((0.5, 1.0, 2.0)):
            ref = analytic_first_passage(x0, 1.0, 1.0, 0.0, 1.0)
            assert res.values[i, -1] == pytest.approx(ref, abs=5e-3)

    def test_solve_marches_with_the_adjusted_time_step(self, bm):
        # dt 0.4 does not divide the horizon 1: the solve takes round(2.5) = 2
        # steps of 0.5, the solve at dt 0.5 bit for bit.
        def solve(dt):
            q = QuerySpec(states=[[1.0]], horizon=1.0,
                          numerics=bm_numerics(dt=dt, boundary_probe=False))
            return exit_time_cdf(bm.system, bm.barrier, bm.policy, q)

        adjusted, exact = solve(0.4), solve(0.5)
        assert adjusted.diagnostics["notes"] == [
            "dt adjusted from 0.4 to 0.5 to divide the horizon"]
        assert adjusted.diagnostics["dt_effective"] == 0.5
        assert adjusted.times.tobytes() == exact.times.tobytes()
        assert adjusted.values.tobytes() == exact.values.tobytes()
        assert adjusted.series.final_field.tobytes() == exact.series.final_field.tobytes()

    def test_states_outside_box_rejected(self, bm):
        with pytest.raises(DataError, match="inside the truncation box"):
            QuerySpec(states=[[9.0]], horizon=1.0, numerics=bm_numerics())

    @pytest.mark.parametrize("field, bad", [
        ("box_lo", {"lo": np.nan}), ("box_lo", {"lo": -np.inf}), ("box_hi", {"hi": np.inf}),
        ("dt", {"dt": np.nan}), ("dt", {"dt": np.inf})])
    def test_numerics_non_finite_rejected(self, field, bad):
        with pytest.raises(DataError, match=f"^{field} must be finite$"):
            bm_numerics(**bad)

    @pytest.mark.parametrize("field, bad", [
        ("states", {"states": [[np.nan]]}), ("horizon", {"horizon": np.nan}),
        ("horizon", {"horizon": np.inf}), ("level", {"level": np.nan}),
        ("times", {"times": [0.0, np.nan]})])
    def test_query_non_finite_rejected(self, field, bad):
        kw = {"states": [[1.0]], "horizon": 1.0, "numerics": bm_numerics(), **bad}
        with pytest.raises(DataError, match=f"^{field} must be finite$"):
            QuerySpec(**kw)

    def test_unknown_kind_rejected(self, bm):
        q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=bm_numerics())
        with pytest.raises(DataError, match="unknown distribution kind"):
            solve_distribution("pdf", bm.system, bm.barrier, bm.policy, q)

    def test_augmented_coordinate_reported(self, bm):
        q = QuerySpec(states=[[1.5]], horizon=0.5, numerics=bm_numerics())
        res = invariance_ccdf(bm.system, bm.barrier, bm.policy, q)
        np.testing.assert_allclose(res.z, [[1.5, 1.5]])

    def test_provenance_recorded(self, bm):
        q = QuerySpec(states=[[1.0]], horizon=0.5, numerics=bm_numerics())
        res = invariance_ccdf(bm.system, bm.barrier, bm.policy, q,
                              config_hash="abc123")
        assert res.provenance["config_hash"] == "abc123"
        assert res.provenance["solver_version"]
        assert len(res.provenance["query_hash"]) == 12

    @staticmethod
    def _trivial_query(lo, hi, x):
        return QuerySpec(states=[[x]], horizon=0.5, times=np.linspace(0.0, 0.5, 6),
                         numerics=bm_numerics(lo=lo, hi=hi, cells=40, dt=1e-2))

    @pytest.mark.parametrize("kind,lo,hi,x,value", [
        ("exit_cdf", -5.0, -1.0, -3.0, 1.0),
        ("invariance_ccdf", -5.0, -1.0, -3.0, 0.0),
        ("entry_cdf", 1.0, 5.0, 3.0, 1.0),
    ])
    @pytest.mark.filterwarnings("ignore:.*lies on the wrong side")
    def test_mask_without_interior_node_returns_dirichlet_value(self, bm, kind, lo, hi, x,
                                                                 value):
        # The whole padded box lies on the pinned side: nothing marches.
        with pytest.warns(SafeProbWarning, match="the mask is trivial"):
            res = solve_distribution(kind, bm.system, bm.barrier, bm.policy,
                                     self._trivial_query(lo, hi, x))
        assert res.diagnostics["interior_nodes"] == 0
        assert res.diagnostics["n_steps"] == 50
        assert res.diagnostics["total_iterations"] == 0
        assert np.all(res.values == value)
        assert np.all(res.series.values == value)
        assert np.all(res.series.final_field == value)
        # Every node at every tabulation time holds the Dirichlet value.
        q = self._trivial_query(lo, hi, x)
        grid = _padded_grid(q.numerics)
        spec = _assemble(bm.system, bm.barrier, bm.policy, grid, 0.0,
                         KIND_TABLE[kind].side, q.numerics.dt)
        series = solve_ibvp(spec.with_data(KIND_TABLE[kind].dirichlet, q.horizon),
                            snapshot_times=q.times, points=grid.nodes())
        assert series.values.shape == (grid.n_nodes, 6)
        assert np.all(series.values == value)

    @pytest.mark.parametrize("kind,lo,hi,x,value", [
        ("exit_cdf", 1.0, 5.0, 3.0, 0.0),
        ("invariance_ccdf", 1.0, 5.0, 3.0, 1.0),
        ("entry_cdf", -5.0, -1.0, -3.0, 0.0),
    ])
    def test_mask_without_pinned_node_marches_every_node(self, bm, kind, lo, hi, x, value):
        # Every node is interior, so the march keeps the constant start
        # (L 1 = 0 under the zero-gradient closure).
        with pytest.warns(SafeProbWarning, match="the mask is trivial"):
            res = solve_distribution(kind, bm.system, bm.barrier, bm.policy,
                                     self._trivial_query(lo, hi, x))
        assert res.diagnostics["interior_nodes"] == 43
        assert res.diagnostics["total_iterations"] == 50
        if value == 0.0:
            assert np.all(res.values == 0.0)
        else:
            np.testing.assert_allclose(res.values, 1.0, rtol=0.0, atol=1e-14)

    def test_infeasible_interior_node_raises(self):
        # Even velocity cells put nodes exactly on v = 0 where the filter's
        # actuated direction vanishes; with a weak rate gain the constraint
        # is violated there and assembly must refuse.
        ex = make_example("double_integrator")
        from safeprob.system_model import linear_rate
        weak = Policy(nominal=ex.policy.nominal, kind="zero_cbf",
                      alpha=linear_rate(0.2))
        num = NumericsConfig(box_lo=(-1.05, -1.05), box_hi=(1.05, 1.05),
                             cells=(40, 40), dt=1e-2)
        q = QuerySpec(states=[[0.0, 0.0]], horizon=0.1, numerics=num)
        with pytest.raises(InfeasibilityError):
            exit_time_cdf(ex.system, ex.barrier, weak, q)

    def test_infeasibility_message_names_vanishing_lg_and_state(self):
        # On 84x84 cells the node (-1, 0) lies on the level set with v = 0:
        # L_g phi is zero there, so no grid refinement removes the failure.
        ex = make_example("double_integrator")
        num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=(84, 84), dt=ex.dt)
        q = QuerySpec(states=[list(ex.x0)], horizon=ex.horizon, numerics=num)
        with pytest.raises(InfeasibilityError,
                           match=r"L_g phi vanishes at interior grid node \[-1\.0, 0\.0\].*"
                                 r"zero-CBF filter has no admissible input") as err:
            exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
        assert err.value.state.tolist() == [-1.0, 0.0]
        assert "refine" not in str(err.value)


class TestNearLevelSetWarning:
    """One warning for each query state with a pinned node within two cells
    of its own cell along every axis."""

    @staticmethod
    def _solve(bm, states, lo=0.0):
        # The shipped grid, h = 0.01: from lo = 0 the padded box starts at the
        # pinned node -0.01 and the node 0.0 is interior.
        q = QuerySpec(states=states, horizon=0.1,
                      numerics=bm_numerics(lo=lo, hi=lo + 8.0, dt=1e-2))
        return solve_distribution("exit_cdf", bm.system, bm.barrier, bm.policy, q)

    def test_one_warning_per_near_state(self, bm):
        # The cells of 0.0, 0.005 and 0.015 lie within two cells of -0.01;
        # those of 0.025 and 1.0 do not.
        with pytest.warns(SafeProbWarning) as caught:
            self._solve(bm, [[0.015], [1.0], [0.0], [0.025], [0.005]])
        assert [str(w.message) for w in caught] == [
            f"exit_cdf: state [{x}] lies within 2 cells of level 0.0; so close to the "
            "level set the solve can be off by O(1)" for x in (0.015, 0.0, 0.005)]

    def test_far_states_draw_no_warning(self, bm):
        self._solve(bm, [[0.025], [1.0]])

    def test_wrong_side_state_draws_only_its_own_warning(self, bm):
        # Its value is the boundary value, exactly.
        with pytest.warns(SafeProbWarning) as caught:
            self._solve(bm, [[-0.005], [1.0]], lo=-1.0)
        assert len(caught) == 1
        assert "lies on the wrong side" in str(caught[0].message)

    def test_3d_window_spans_every_axis(self):
        grid = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (10, 10, 10))
        mask = np.ones(grid.shape, dtype=bool)
        mask[0, 5, 5] = False
        states = np.array([[0.25, 0.55, 0.55],   # cell (2, 5, 5): reaches node (0, 5, 5)
                           [0.35, 0.55, 0.55],   # cell (3, 5, 5): does not
                           [0.25, 0.95, 0.55],   # cell (2, 9, 5): not on axis 1
                           [0.0, 0.35, 0.75]])   # cell (0, 3, 7): nodes 1..9 on both
        np.testing.assert_array_equal(distributions._near_level_set(grid, mask, states),
                                      [True, False, False, True])


class TestSummaryStats:
    def test_instant_passage_mean_zero(self, bm):
        # A state already outside: exit CDF is 1 for all t.
        q = QuerySpec(states=[[-0.5]], horizon=1.0,
                      numerics=bm_numerics(lo=-1.0, hi=4.0, cells=500))
        with pytest.warns(SafeProbWarning):
            res = exit_time_cdf(bm.system, bm.barrier, bm.policy, q)
        stats = summary_stats(res)
        assert stats["mean_time_lower_bound"][0] == pytest.approx(0.0, abs=1e-12)
        assert stats["censored_mass"][0] == 0.0

    def test_exit_mean_matches_analytic_integral(self, bm):
        horizon = 10.0
        times = np.linspace(0.0, horizon, 401)
        q = QuerySpec(states=[[1.0]], horizon=horizon, times=times,
                      numerics=bm_numerics())
        res = exit_time_cdf(bm.system, bm.barrier, bm.policy, q)
        stats = summary_stats(res)
        reference = analytic_first_passage(1.0, 1.0, 1.0, 0.0, times)
        expected = np.trapezoid(1.0 - reference, times)
        assert stats["mean_time_lower_bound"][0] == pytest.approx(expected, abs=2e-2)
        assert stats["censored_mass"][0] == pytest.approx(1.0 - reference[-1], abs=5e-3)

    def test_entry_median_brackets_analytic(self, bm):
        q = QuerySpec(states=[[-1.0]], horizon=3.0,
                      times=np.linspace(0, 3, 301),
                      numerics=bm_numerics(lo=-8.0, hi=0.0))
        res = entry_time_cdf(bm.system, bm.barrier, bm.policy, q)
        stats = summary_stats(res)
        median = stats["quantiles"][0.5][0]
        # Bisection root of the analytic CDF - 0.5.
        lo, hi = 1e-6, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if analytic_first_passage(-1.0, 1.0, 1.0, 0.0, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert abs(median - 0.5 * (lo + hi)) < 0.02

    def test_quantile_nan_when_censored(self, bm):
        q = QuerySpec(states=[[2.0]], horizon=0.2, numerics=bm_numerics())
        res = exit_time_cdf(bm.system, bm.barrier, bm.policy, q)
        stats = summary_stats(res)
        assert np.isnan(stats["quantiles"][0.5][0])

    def test_event_cdf_orientation(self, invariance_result, exit_result):
        np.testing.assert_allclose(event_time_cdf(invariance_result),
                                   1.0 - invariance_result.values)
        np.testing.assert_allclose(event_time_cdf(exit_result), exit_result.values)

    def test_non_monotone_table_rejected(self, exit_result):
        broken = type(exit_result)(
            kind=exit_result.kind, states=exit_result.states, z=exit_result.z,
            times=exit_result.times, level=exit_result.level,
            values=np.abs(np.sin(np.linspace(0, 6, exit_result.values.shape[1])))[None, :],
            diagnostics={}, provenance={}, series=exit_result.series)
        with pytest.raises(DataError, match="monotone"):
            summary_stats(broken)


class TestUnicycleSmoke:
    def test_three_dimensional_solve_runs(self):
        ex = make_example("unicycle_disk")
        num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=(12, 12, 8),
                             dt=5e-3, boundary_probe=False)
        q = QuerySpec(states=[ex.x0], horizon=0.2, numerics=num)
        res = exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
        assert 0.0 <= res.values[0, -1] <= 1.0
        assert monotonicity_violation(res) <= 1e-10


class TestSolveMemory:
    def test_peak_does_not_grow_with_tabulation_times(self):
        # A solve keeps the query-state table and one full field, so 101
        # tabulation times cost what 2 do.
        ex = make_example("double_integrator")
        num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=(84, 85), dt=1e-2)

        def peak(n_times):
            q = QuerySpec(states=[ex.x0], horizon=ex.horizon, numerics=num,
                          times=np.linspace(0.0, ex.horizon, n_times))
            tracemalloc.start()
            try:
                exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up: one-time allocations stay out of the comparison
        assert peak(101) <= 1.2 * peak(2)


class TestProbeWorker:
    """Given a second CPU the boundary probe solves in a forked worker while
    the march runs; without one it solves in this process after the march."""

    @staticmethod
    def _query(name):
        # Both boxes cut the interior, so the probe runs: the 1D box at its
        # high face, the 3D box at its heading faces.
        if name == "1d":
            return make_example("drifted_bm_1d"), QuerySpec(
                states=[[1.0], [3.0]], horizon=1.0, numerics=bm_numerics(cells=400, dt=2e-3))
        ex = make_example("unicycle_disk")
        num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=(16, 16, 8), dt=1e-2)
        return ex, QuerySpec(states=[[0.5, 0.5, 1.0]], horizon=0.1, numerics=num)

    @staticmethod
    def _fail_solves(monkeypatch, fail):
        """Route the solves of ``distributions`` through ``fail(spec)`` first."""
        original = distributions.solve_ibvp

        def solve(spec, **kwargs):
            fail(spec)
            return original(spec, **kwargs)

        monkeypatch.setattr(distributions, "solve_ibvp", solve)

    @pytest.mark.parametrize("name", ["1d", "3d"])
    def test_bytes_do_not_depend_on_cpu_count(self, name, monkeypatch):
        ex, q = self._query(name)
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        runs = {}
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            # The 3D state lies within two cells of the level set.
            with pytest.warns(SafeProbWarning, match="within 2 cells") if name == "3d" \
                    else contextlib.nullcontext():
                res = exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
            runs[cpus] = (res.values.tobytes(), res.series.final_field.tobytes(),
                          json.dumps(res.diagnostics, sort_keys=True))
        assert len(forks) == 1
        assert runs[2] == runs[1]
        assert json.loads(runs[1][2])["boundary_sensitivity"] is not None
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_probe_error_reaches_the_caller(self, cpus, monkeypatch):
        ex, q = self._query("1d")
        pin_cpus(monkeypatch, cpus)

        def fail(spec):
            if spec.dt != q.numerics.dt:  # a probe solve, at coarser steps
                raise SolverError("probe solve failed", residual=0.5)

        self._fail_solves(monkeypatch, fail)
        with pytest.raises(SolverError, match="^probe solve failed$") as err:
            exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
        assert err.value.residual == 0.5
        assert_no_child_left()

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        ex, q = self._query("1d")
        pin_cpus(monkeypatch, 2)
        caller = os.getpid()

        def fail(spec):
            if os.getpid() != caller:
                os._exit(3)

        self._fail_solves(monkeypatch, fail)
        with pytest.raises(SolverError, match="exited with code 3 and sent no result"):
            exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
        assert_no_child_left()

    def test_probe_error_exits_3(self, tmp_path, monkeypatch, capsys):
        pin_cpus(monkeypatch, 2)
        dt = json.loads((CONFIG_DIR / "drifted_bm_exit.json").read_text())["numerics"]["dt"]

        def fail(spec):
            if spec.dt != dt:
                raise SolverError("probe solve failed")

        self._fail_solves(monkeypatch, fail)
        assert main(["solve", "--config", str(CONFIG_DIR / "drifted_bm_exit.json"),
                     "--out", str(tmp_path)]) == 3
        assert "solver error: probe solve failed" in capsys.readouterr().err
        assert_no_child_left()

    def test_march_error_stops_the_worker(self, monkeypatch):
        ex, q = self._query("1d")
        pin_cpus(monkeypatch, 2)
        caller = os.getpid()

        def fail(spec):
            if os.getpid() != caller:
                time.sleep(120)  # a probe that would long outlast the march
            raise SolverError("march failed")

        self._fail_solves(monkeypatch, fail)
        start = time.monotonic()
        with pytest.raises(SolverError, match="^march failed$"):
            exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
        assert time.monotonic() - start < 60
        assert_no_child_left()

    def test_probe_assembly_error_raises_before_the_march(self, monkeypatch):
        ex, q = self._query("1d")
        pin_cpus(monkeypatch, 2)
        original = distributions._assemble

        def assemble(*args):
            if args[-1] != q.numerics.dt:  # a probe grid, at coarser steps
                raise InfeasibilityError([0.0], "probe grid infeasible")
            return original(*args)

        monkeypatch.setattr(distributions, "_assemble", assemble)
        self._fail_solves(monkeypatch, lambda spec: pytest.fail("marched"))
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        for _ in range(2):
            with pytest.raises(InfeasibilityError, match="probe grid infeasible"):
                exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
            # The main problem is kept; the probe grid's keeps nothing.
            assert len(distributions._problems) == 1
