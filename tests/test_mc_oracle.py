import dataclasses
import itertools
import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeprob import (
    BarrierProblem,
    ControlSystem,
    PathConfig,
    Policy,
    analytic_first_passage,
    empirical_ccdf_min,
    empirical_cdf_entry,
    empirical_cdf_exit,
    empirical_cdf_max,
    ks_distance,
    make_example,
    simulate_paths,
)
from safeprob import mc_oracle
from safeprob.errors import DataError, InfeasibilityError, ShapeError, SolverError
from safeprob.library import build_models
from safeprob.system_model import closed_loop_control_batch
from safeprob.mc_oracle import CdfTable, EmpiricalDistribution
from safeprob.workers import concurrently, worker_cpus

from conftest import (
    DKW_1E5,
    ENTRY_RECOVERY,
    EXIT_DRIFTED,
    EXIT_DRIFTLESS,
    assert_no_child_left,
    const_system_1d,
    identity_barrier,
    pin_cpus,
    zero_nominal,
)

NONE_POLICY = Policy(nominal=zero_nominal(1), kind="none")


class TestAnalyticFirstPassage:
    def test_driftless_reflection(self):
        assert analytic_first_passage(1.0, 0.0, 1.0, 0.0, 1.0) == pytest.approx(
            EXIT_DRIFTLESS, abs=1e-12)

    def test_drifted_down_crossing(self):
        assert analytic_first_passage(1.0, 1.0, 1.0, 0.0, 1.0) == pytest.approx(
            EXIT_DRIFTED, abs=1e-12)

    def test_drifted_up_crossing(self):
        assert analytic_first_passage(-1.0, 1.0, 1.0, 0.0, 1.0) == pytest.approx(
            ENTRY_RECOVERY, abs=1e-12)

    def test_zero_time_is_zero_off_level(self):
        assert analytic_first_passage(1.0, 0.3, 1.0, 0.0, 0.0) == 0.0

    def test_starting_on_level_is_one(self):
        assert analytic_first_passage(0.0, 0.3, 1.0, 0.0, 0.5) == 1.0

    def test_nonpositive_vol_rejected(self):
        with pytest.raises(ValueError):
            analytic_first_passage(1.0, 0.0, 0.0, 0.0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(x0=st.floats(-3, 3), mu=st.floats(-2, 2), vol=st.floats(0.1, 3),
           level=st.floats(-3, 3))
    def test_monotone_in_time_and_in_range(self, x0, mu, vol, level):
        t = np.linspace(0.0, 4.0, 41)
        cdf = np.asarray(analytic_first_passage(x0, mu, vol, level, t))
        assert np.all(cdf >= -1e-12) and np.all(cdf <= 1.0 + 1e-12)
        assert np.all(np.diff(cdf) >= -1e-12)


class TestDeterministicPaths:
    def test_frozen_system_keeps_barrier_constant(self):
        sys = const_system_1d(0.0, 0.0, 0.0)
        cfg = PathConfig(dt=0.1, horizon=1.0, n_paths=7, seed=1)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [0.7], cfg)
        np.testing.assert_array_equal(ens.min_phi, 0.7)
        np.testing.assert_array_equal(ens.max_phi, 0.7)
        assert np.all(np.isnan(ens.exit_time))
        # Already at/above the level: entry is immediate.
        np.testing.assert_array_equal(ens.entry_time, 0.0)

    def test_deterministic_ramp_crosses_at_one(self):
        sys = const_system_1d(1.0, 0.0, 0.0)
        cfg = PathConfig(dt=1e-3, horizon=2.0, n_paths=5, seed=3)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [-1.0], cfg)
        np.testing.assert_allclose(ens.entry_time, 1.0, atol=1e-9)
        # Starting below the level, the down-crossing time is 0 by definition.
        np.testing.assert_array_equal(ens.exit_time, 0.0)
        np.testing.assert_allclose(ens.min_phi, -1.0, atol=1e-12)
        np.testing.assert_allclose(ens.max_phi, 1.0, atol=1e-9)

    def test_start_below_level_exits_immediately(self):
        sys = const_system_1d(0.0, 0.0, 1.0)
        cfg = PathConfig(dt=0.1, horizon=0.5, n_paths=3, seed=5)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [-0.2], cfg)
        np.testing.assert_array_equal(ens.exit_time, 0.0)

    def test_start_on_level_passes_both_ways_at_once(self):
        sys = const_system_1d(0.0, 0.0, 1.0)
        cfg = PathConfig(dt=0.1, horizon=0.5, n_paths=3, seed=5)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [0.0], cfg)
        np.testing.assert_array_equal(ens.exit_time, 0.0)
        np.testing.assert_array_equal(ens.entry_time, 0.0)


class TestReproducibility:
    def _ensemble(self, seed=11, n_paths=400):
        sys = const_system_1d(1.0, 0.0, 1.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=n_paths, seed=seed)
        return simulate_paths(sys, identity_barrier(), NONE_POLICY, [1.0], cfg)

    def test_same_seed_bit_identical(self):
        a = self._ensemble()
        b = self._ensemble()
        np.testing.assert_array_equal(a.min_phi, b.min_phi)
        np.testing.assert_array_equal(a.exit_time, b.exit_time)

    def test_block_partition_does_not_change_results(self, monkeypatch):
        a = self._ensemble()
        # Blocks of at most 97 paths of 100 steps: five of 80.
        monkeypatch.setattr(mc_oracle, "BLOCK_BYTES", 97 * 8 * (100 + 100))
        b = self._ensemble()
        np.testing.assert_array_equal(a.min_phi, b.min_phi)
        np.testing.assert_array_equal(a.max_phi, b.max_phi)
        np.testing.assert_array_equal(a.exit_time, b.exit_time)

    def test_different_seed_differs(self):
        a = self._ensemble(seed=11)
        b = self._ensemble(seed=12)
        assert not np.array_equal(a.min_phi, b.min_phi)


class TestPathNoise:
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_one_philox_stream_per_path(self, k):
        seed, first, count, n_steps = 2024, 37, 6, 11
        want = np.stack([
            np.random.Generator(np.random.Philox(
                key=np.array([seed, first + i], dtype=np.uint64))).standard_normal((n_steps, k))
            for i in range(count)])
        np.testing.assert_array_equal(
            mc_oracle._path_noise(seed, first, count, n_steps, k), want)

    def test_consecutive_calls_share_no_state(self):
        # 7 draws a path leave the Philox output buffer part-used.
        a = mc_oracle._path_noise(9, 3, 5, 7, 1)
        b = mc_oracle._path_noise(9, 3, 5, 7, 1)
        tail = mc_oracle._path_noise(9, 6, 2, 7, 1)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a[3:], tail)

    def test_bridge_draws_match_one_philox_stream_per_path(self):
        # -ln(1 - U) of the uniforms of counter word 2 = 1; a row may start
        # at any multiple of 4 steps.
        seed, first, count, n_steps = 2024, 37, 6, 11

        def stream(i):
            return np.random.Generator(np.random.Philox(
                key=np.array([seed, first + i], dtype=np.uint64), counter=[0, 0, 1, 0]))

        want = np.stack([stream(i).standard_exponential(n_steps, method="inv")
                         for i in range(count)])
        uniforms = np.stack([stream(i).random(n_steps) for i in range(count)])
        np.testing.assert_allclose(want, -np.log1p(-uniforms), rtol=1e-15, atol=0)
        out = np.empty((count, n_steps))
        np.testing.assert_array_equal(
            mc_oracle._path_exponentials(seed, first, count, 0, out), want)
        tail = mc_oracle._path_exponentials(seed, first, count, 8,
                                            np.empty((count, n_steps - 8)))
        np.testing.assert_array_equal(tail, want[:, 8:])

    def test_bridge_chunks_do_not_change_results(self, monkeypatch):
        sys = const_system_1d(1.0, 0.0, 1.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=300, seed=21)
        a = _fields(simulate_paths(sys, identity_barrier(), NONE_POLICY, [1.0], cfg))
        monkeypatch.setattr(mc_oracle, "BRIDGE_STEPS", 8)
        b = _fields(simulate_paths(sys, identity_barrier(), NONE_POLICY, [1.0], cfg))
        assert a == b

    def test_one_blocks_draws_held_at_a_time(self, monkeypatch):
        # Four blocks of at most 64 paths x 500 steps: only one block's
        # draws (its noise, 256 kB at most, and a chunk of its bridge draws)
        # may be held at a time.  One CPU keeps the blocks in this process,
        # where tracemalloc sees their draws.
        pin_cpus(monkeypatch, 1)
        monkeypatch.setattr(mc_oracle, "BLOCK_BYTES", 64 * 8 * (500 + mc_oracle.BRIDGE_STEPS))
        ex = make_example("drifted_bm_1d")
        cfg = PathConfig(dt=2e-3, horizon=1.0, n_paths=3 * 64 + 10, seed=3)
        block_bytes = 64 * 500 * 1 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_paths(ex.system, ex.barrier, ex.policy, ex.x0, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block_bytes


def _reference_paths(sys, bar, policy, x0, cfg, level=0.0):
    """One path at a time, one fresh Philox generator per path and stream,
    with the arithmetic of ``simulate_paths``: the per-path statement of its
    result.

    Each step samples the Brownian-bridge extremum of phi between its end
    values from the path's uniform (counter word 2 = 1).  A path is dropped,
    and stops recording, at the step where the filter is infeasible or the
    step leaves the finite numbers.
    """
    n_steps = max(1, int(round(cfg.horizon / cfg.dt)))
    dt = cfg.horizon / n_steps
    sqdt = np.sqrt(dt)
    x_start = np.asarray(x0, dtype=float).reshape(1, sys.n)
    phi0 = float(bar.phi_at(x_start)[0])
    rows = []
    for p in range(cfg.n_paths):
        key = np.array([cfg.seed, p], dtype=np.uint64)
        noise = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, sys.k))
        # -ln(1 - U) for the uniforms U of counter word 2 = 1.
        bridge_gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 1, 0]))
        draws = bridge_gen.standard_exponential(n_steps, method="inv")
        x, phi, lo, hi = x_start, phi0, phi0, phi0
        exit_t = 0.0 if phi0 <= level else np.nan
        entry_t = 0.0 if phi0 >= level else np.nan
        diverged = infeasible = False
        for s in range(n_steps):
            with np.errstate(over="ignore", invalid="ignore"):
                u, infeasible_now = closed_loop_control_batch(policy, sys, bar, x)
                if infeasible_now[0]:
                    infeasible = True
                    break
                drift = sys.f_at(x) + np.einsum("bim,bm->bi", sys.g_at(x), u)
                sig = sys.sigma_at(x)
                xn = x + drift * dt + np.einsum("bik,bk->bi", sig, noise[None, s, :]) * sqdt
                phin = float(bar.phi_at(xn)[0])
                # The bridge minimum (a + b - sqrt((b - a)^2 - 2 s^2 dt ln(1 - U))) / 2
                # is min(a, b) - beyond, the maximum max(a, b) + beyond.
                gs = np.einsum("bi,bik->bk", bar.grad_at(x), sig)
                spread = np.einsum("bk,bk->b", gs, gs)[0] * (draws[s] * (0.5 * dt))
                half_gap = 0.5 * abs(phin - phi)
                root = np.sqrt(half_gap * half_gap + spread) + half_gap
                beyond = spread / root if spread > 0 else 0.0
            if not (np.all(np.isfinite(xn)) and np.isfinite(phin) and np.isfinite(spread)):
                diverged = True
                break
            low, high = min(phi, phin) - beyond, max(phi, phin) + beyond
            step_end = min((s + 1) * dt, cfg.horizon)
            if low <= level and np.isnan(exit_t):
                frac = (phi - level) / (phi - phin) if phi - phin > 0 else 1.0
                exit_t = (s * dt + dt * min(max(frac, 0.0), 1.0) if phin <= level
                          else step_end)
            if high >= level and np.isnan(entry_t):
                frac = (level - phi) / (phin - phi) if phin - phi > 0 else 1.0
                entry_t = (s * dt + dt * min(max(frac, 0.0), 1.0) if phin >= level
                           else step_end)
            lo, hi = min(lo, low), max(hi, high)
            x, phi = xn, phin
        rows.append((lo, hi, exit_t, entry_t, diverged, infeasible))
    return [np.array(col) for col in zip(*rows)]


class TestExcludedPaths:
    """Excluded paths freeze in place and leave their block's statistics, and
    every other path's, as the per-path reference has them."""

    @staticmethod
    def _diverging():
        # Cubic blow-up at a coarse step: some paths overflow, some survive.
        sys = ControlSystem(n=1, m=1, k=1, f=lambda X: X ** 3,
                            g=lambda X: np.zeros(X.shape + (1,)),
                            sigma=lambda X: np.ones(X.shape + (1,)))
        cfg = PathConfig(dt=0.2, horizon=2.0, n_paths=300, seed=5)
        return sys, NONE_POLICY, [1.0], cfg

    @staticmethod
    def _infeasible():
        # No actuation below 0.3 against a drift that breaks the rate
        # constraint there: the zero-CBF filter fails on most paths, and
        # each stays excluded though its block keeps stepping.
        sys = ControlSystem(n=1, m=1, k=1, f=lambda X: np.full(X.shape, -2.0),
                            g=lambda X: np.where(X[:, :, None] < 0.3, 0.0, 1.0),
                            sigma=lambda X: np.full(X.shape + (1,), 3.0))
        policy = Policy(nominal=zero_nominal(1), kind="zero_cbf")
        cfg = PathConfig(dt=1e-2, horizon=0.1, n_paths=400, seed=3)
        return sys, policy, [0.5], cfg

    @pytest.mark.parametrize("case", ["_diverging", "_infeasible"])
    def test_block_partition_does_not_change_results(self, case, monkeypatch):
        sys, policy, x0, cfg = getattr(self, case)()
        a = simulate_paths(sys, identity_barrier(), policy, x0, cfg)
        assert 0 < a.n_diverged + a.n_infeasible < cfg.n_paths
        # Blocks of at most 97 paths of 10 steps.
        monkeypatch.setattr(mc_oracle, "BLOCK_BYTES", 97 * 8 * (10 + 10))
        b = simulate_paths(sys, identity_barrier(), policy, x0, cfg)
        for field in ("min_phi", "max_phi", "exit_time", "entry_time", "excluded"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert (a.n_diverged, a.n_infeasible) == (b.n_diverged, b.n_infeasible)

    def test_every_path_excluded_raises(self):
        # Cubic blow-up from above at a large step: every path overflows, and
        # no curve can be estimated from what is left.
        sys = ControlSystem(n=1, m=1, k=1, f=lambda X: X ** 3 + 10,
                            g=lambda X: np.zeros(X.shape + (1,)),
                            sigma=lambda X: np.ones(X.shape + (1,)))
        cfg = PathConfig(dt=0.5, horizon=5.0, n_paths=50, seed=5)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [1.0], cfg)
        assert ens.n_diverged == cfg.n_paths
        for estimate in (empirical_cdf_exit, empirical_cdf_entry, empirical_ccdf_min,
                         empirical_cdf_max):
            with pytest.raises(DataError, match="^all paths were excluded; nothing to estimate$"):
                estimate(ens, [1.0])

    def test_state_without_a_slope_excludes_its_path(self):
        # x1 steps from -0.5 to 0 in two steps; there the slope of
        # sqrt(abs(x1)) is 0.5 / 0 times sign(0), NaN, and so is the bridge's
        # variance rate: each path ends as a non-finite phi would end it.
        sys, bar, policy = build_models({
            "system": {"dim_state": 2, "dim_input": 1, "dim_noise": 1, "f": ["1", "0"],
                       "g": [["0"], ["0"]], "sigma": [["0"], ["1"]]},
            "barrier": {"phi": "1 + sqrt(abs(x1))"}})
        cfg = PathConfig(dt=0.25, horizon=1.0, n_paths=20, seed=1)
        ens = simulate_paths(sys, bar, policy, [-0.5, 0.0], cfg)
        assert ens.n_diverged == cfg.n_paths and ens.excluded.all()
        # Frozen where the slope failed: phi fell from 1 + sqrt(0.5) to 1 and stopped.
        np.testing.assert_array_equal(ens.min_phi, 1.0)
        np.testing.assert_array_equal(ens.max_phi, 1.0 + np.sqrt(0.5))

    @pytest.mark.parametrize("case", ["_diverging", "_infeasible"])
    def test_matches_per_path_reference(self, case):
        sys, policy, x0, cfg = getattr(self, case)()
        ens = simulate_paths(sys, identity_barrier(), policy, x0, cfg)
        lo, hi, exit_t, entry_t, diverged, infeasible = _reference_paths(
            sys, identity_barrier(), policy, x0, cfg)
        np.testing.assert_array_equal(ens.min_phi, lo)
        np.testing.assert_array_equal(ens.max_phi, hi)
        np.testing.assert_array_equal(ens.exit_time, exit_t)
        np.testing.assert_array_equal(ens.entry_time, entry_t)
        np.testing.assert_array_equal(ens.excluded, diverged | infeasible)
        assert (ens.n_diverged, ens.n_infeasible) == (diverged.sum(), infeasible.sum())


def _fields(ens):
    """Every PathEnsemble field, arrays as (dtype, shape, bytes)."""
    fields = {}
    for field in dataclasses.fields(ens):
        v = getattr(ens, field.name)
        fields[field.name] = (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
    return fields


def _small_shares(monkeypatch):
    """One worker share per 97 paths, up to one per CPU, in blocks of at
    most 97 paths of 10 steps (64, the floor, at 100 steps)."""
    monkeypatch.setattr(mc_oracle, "WORKER_PATHS", 97)
    monkeypatch.setattr(mc_oracle, "BLOCK_BYTES", 97 * 8 * (10 + 10))


class TestWorkerProcesses:
    """Blocks run in contiguous shares, one forked worker each, up to one per
    available CPU; the ensemble's bytes do not depend on how many."""

    @staticmethod
    def _reproducibility():
        return (const_system_1d(1.0, 0.0, 1.0), identity_barrier(), NONE_POLICY, [1.0],
                PathConfig(dt=1e-2, horizon=1.0, n_paths=400, seed=11))

    @staticmethod
    def _zero_cbf_2d():
        ex = make_example("double_integrator")
        return (ex.system, ex.barrier, ex.policy, ex.x0,
                PathConfig(dt=1e-3, horizon=0.1, n_paths=500, seed=77))

    @staticmethod
    def _excluded(case):
        sys, policy, x0, cfg = getattr(TestExcludedPaths, case)()
        return sys, identity_barrier(), policy, x0, cfg

    @pytest.mark.parametrize("case", ["_reproducibility", "_diverging", "_infeasible",
                                      "_zero_cbf_2d"])
    def test_bytes_do_not_depend_on_cpu_count(self, case, monkeypatch):
        args = (self._excluded(case) if case in ("_diverging", "_infeasible")
                else getattr(self, case)())
        _small_shares(monkeypatch)
        fork = os.fork
        runs, forks = {}, {}
        for cpus in (1, 2, 3):
            pin_cpus(monkeypatch, cpus)
            forks[cpus] = []
            monkeypatch.setattr(os, "fork", lambda n=cpus: forks[n].append(n) or fork())
            runs[cpus] = _fields(simulate_paths(*args))
        assert {cpus: len(pids) for cpus, pids in forks.items()} == {1: 0, 2: 2, 3: 3}
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]
        if case in ("_diverging", "_infeasible"):
            ens = runs[1]
            assert 0 < ens["n_diverged"] + ens["n_infeasible"] < args[-1].n_paths
        assert_no_child_left()

    @staticmethod
    def _simulate_failing_in_workers(monkeypatch, fail):
        """Four blocks on two CPUs, with a drift that calls ``fail`` in any
        process but this one."""
        caller = os.getpid()

        def f(X):
            if os.getpid() != caller:
                fail()
            return np.zeros_like(X)

        sys = ControlSystem(n=1, m=1, k=1, f=f, g=lambda X: np.zeros(X.shape + (1,)),
                            sigma=lambda X: np.ones(X.shape + (1,)))
        pin_cpus(monkeypatch, 2)
        monkeypatch.setattr(mc_oracle, "WORKER_PATHS", 64)
        monkeypatch.setattr(mc_oracle, "BLOCK_BYTES", 64 * 8 * (10 + 10))
        simulate_paths(sys, identity_barrier(), NONE_POLICY, [1.0],
                       PathConfig(dt=0.1, horizon=1.0, n_paths=200, seed=1))

    @pytest.mark.parametrize("error", [ShapeError("f failed in a worker"),
                                       InfeasibilityError([1.0], "f failed in a worker")],
                             ids=["ShapeError", "InfeasibilityError"])
    def test_worker_error_reaches_the_caller(self, error, monkeypatch):
        def fail():
            raise error

        with pytest.raises(type(error), match="f failed in a worker"):
            self._simulate_failing_in_workers(monkeypatch, fail)
        assert_no_child_left()

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        with pytest.raises(SolverError, match="exited with code 3 and sent no result"):
            self._simulate_failing_in_workers(monkeypatch, lambda: os._exit(3))
        assert_no_child_left()

    def test_first_error_stops_the_other_workers(self, monkeypatch):
        # The first share's block fails at once while the second's would
        # run for a minute: the error must not wait for it.
        original = mc_oracle._simulate_block

        def block(*args):
            if args[-1][0] == 0:
                raise ShapeError("first block failed")
            time.sleep(60)
            return original(*args)

        monkeypatch.setattr(mc_oracle, "_simulate_block", block)
        args = self._reproducibility()
        pin_cpus(monkeypatch, 2)
        _small_shares(monkeypatch)
        start = time.monotonic()
        with pytest.raises(ShapeError, match="^first block failed$"):
            simulate_paths(*args)
        assert time.monotonic() - start < 10
        assert_no_child_left()

    @pytest.mark.skipif(worker_cpus() < 2, reason="needs two CPUs to fork workers")
    def test_first_error_to_arrive_is_raised(self):
        # The second call fails at once behind a first that takes 3 s: its
        # error must not wait for the first call's result.
        def slow():
            time.sleep(3)
            return "slow"

        def failing():
            raise ShapeError("second call failed")

        start = time.monotonic()
        with pytest.raises(ShapeError, match="^second call failed$"):
            with concurrently(slow, failing) as results:
                results()
        assert time.monotonic() - start < 1
        assert_no_child_left()

    @pytest.mark.skipif(worker_cpus() < 2, reason="needs two CPUs to fork workers")
    def test_results_come_in_call_order(self):
        # The second call returns first; the list keeps the calls' order.
        def slow():
            time.sleep(0.3)
            return "first"

        with concurrently(slow, lambda: "second") as results:
            assert results() == ["first", "second"]
        assert_no_child_left()

    def test_daemonic_caller_runs_in_process(self, monkeypatch):
        # A daemonic process may not start children, so ``worker_cpus``
        # keeps its blocks in process; the child below sends its ensemble.
        args = self._reproducibility()
        pin_cpus(monkeypatch, 2)
        _small_shares(monkeypatch)
        want = _fields(simulate_paths(*args))
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)

        def run():
            sender.send(_fields(simulate_paths(*args)))

        proc = ctx.Process(target=run, daemon=True)
        proc.start()
        try:
            assert receiver.poll(60), "the daemonic caller sent no ensemble"
            assert receiver.recv() == want
        finally:
            proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0


class TestBlockPlan:
    """The ensemble splits into worker shares first, then each share into the
    fewest even blocks whose draws fit ``BLOCK_BYTES``."""

    @staticmethod
    def _path_bytes(n_steps, k):
        return 8 * (n_steps * k + min(n_steps, mc_oracle.BRIDGE_STEPS))

    def test_small_ensemble_is_one_block_in_the_calling_process(self, monkeypatch):
        assert mc_oracle._block_plan(mc_oracle.WORKER_PATHS - 1, 1600, 8) == [
            [(0, mc_oracle.WORKER_PATHS - 1)]]
        pin_cpus(monkeypatch, 2)
        forks, blocks = [], []
        fork, original = os.fork, mc_oracle._simulate_block
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(mc_oracle, "_simulate_block",
                            lambda *args: blocks.append(args[-1]) or original(*args))
        cfg = PathConfig(dt=0.1, horizon=0.2, n_paths=mc_oracle.WORKER_PATHS - 1, seed=4)
        simulate_paths(const_system_1d(1.0, 0.0, 1.0), identity_barrier(), NONE_POLICY,
                       [1.0], cfg)
        assert forks == []
        assert blocks == [(0, cfg.n_paths)]

    def test_1d_ensemble_on_two_cpus_is_one_block_per_worker(self):
        # The shipped drifted_bm_exit ensemble: 20,000 paths of 100 steps.
        # One block of all of them would fit the budget too, but the worker
        # count is fixed first.
        assert mc_oracle._block_plan(20_000, self._path_bytes(100, 1), 2) == [
            [(0, 10_000)], [(10_000, 10_000)]]

    def test_shares_over_budget_split_into_fewest_even_blocks(self, monkeypatch):
        # The unicycle's 20,000 paths of 500 steps and 3 noise columns, under
        # a 64-MB budget: 4555 paths a block at most.
        monkeypatch.setattr(mc_oracle, "BLOCK_BYTES", 64_000_000)
        assert mc_oracle._block_plan(20_000, self._path_bytes(500, 3), 2) == [
            [(0, 3333), (3333, 3333), (6666, 3334)],
            [(10_000, 3333), (13_333, 3333), (16_666, 3334)]]

    @settings(max_examples=300, deadline=None)
    @given(n_paths=st.integers(1, 10**6), n_steps=st.integers(1, 10**5),
           k=st.integers(1, 4), cpus=st.integers(1, 64))
    def test_plan_invariants(self, n_paths, n_steps, k, cpus):
        per_path = self._path_bytes(n_steps, k)
        shares = mc_oracle._block_plan(n_paths, per_path, cpus)
        workers = (1 if n_paths < mc_oracle.WORKER_PATHS
                   else min(cpus, -(-n_paths // mc_oracle.WORKER_PATHS)))
        assert len(shares) == workers
        blocks = [block for share in shares for block in share]
        assert [start for start, _ in blocks] == list(
            itertools.accumulate([0] + [count for _, count in blocks[:-1]]))
        assert sum(count for _, count in blocks) == n_paths
        per_share = [[count for _, count in share] for share in shares]
        sizes = [sum(counts) for counts in per_share]
        assert max(sizes) - min(sizes) <= 1
        for counts, size in zip(per_share, sizes):
            assert max(counts) - min(counts) <= 1
            # No block over budget but at the floor, and one block fewer
            # would put one over it.
            assert all(c * per_path <= mc_oracle.BLOCK_BYTES or c <= mc_oracle.MIN_BLOCK
                       for c in counts)
            if len(counts) > 1:
                fewer = -(-size // (len(counts) - 1))
                assert fewer * per_path > mc_oracle.BLOCK_BYTES and fewer > mc_oracle.MIN_BLOCK


class TestPathwiseDuality:
    def test_min_below_level_iff_exit_recorded(self):
        sys = const_system_1d(0.2, 0.0, 1.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=2000, seed=7)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [0.5], cfg)
        exited = ~np.isnan(ens.exit_time)
        np.testing.assert_array_equal(ens.min_phi <= ens.level, exited)

    def test_max_above_level_iff_entry_recorded(self):
        sys = const_system_1d(0.2, 0.0, 1.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=2000, seed=9)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [-0.5], cfg)
        entered = ~np.isnan(ens.entry_time)
        np.testing.assert_array_equal(ens.max_phi >= ens.level, entered)

    def test_entry_is_exit_of_the_negated_barrier(self):
        # With policy "none" the barrier does not steer, so both runs draw
        # the same paths and only the sign of phi, of its derivatives (the
        # bridge reads the gradient) and of the level differs.
        sys = const_system_1d(0.2, 0.0, 1.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=2000, seed=9)
        negated = BarrierProblem(phi=lambda X: -X[..., 0],
                                 grad_phi=lambda X: -np.ones_like(X),
                                 hess_phi=lambda X: np.zeros(X.shape[:-1] + (1, 1)))
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [-0.5], cfg, level=0.25)
        neg = simulate_paths(sys, negated, NONE_POLICY, [-0.5], cfg, level=-0.25)
        entered = ~np.isnan(ens.entry_time)
        assert 0 < entered.sum() < cfg.n_paths
        np.testing.assert_array_equal(ens.entry_time, neg.exit_time)
        np.testing.assert_array_equal(ens.max_phi, -neg.min_phi)
        np.testing.assert_array_equal(ens.exit_time, neg.entry_time)
        np.testing.assert_array_equal(ens.min_phi, -neg.max_phi)


class TestEmpiricalDistributions:
    def _drifted_ensemble(self, n_paths):
        sys = const_system_1d(1.0, 0.0, 1.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=n_paths, seed=42)
        return simulate_paths(sys, identity_barrier(), NONE_POLICY, [1.0], cfg)

    def test_single_path_event_is_step_function(self):
        sys = const_system_1d(1.0, 0.0, 0.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=1, seed=1)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [-0.5], cfg)
        emp = empirical_cdf_entry(ens, [0.25, 1.0])
        np.testing.assert_allclose(ens.entry_time, 0.5, atol=1e-9)
        np.testing.assert_array_equal(emp.values, [0.0, 1.0])

    def test_dkw_band_at_reference_size(self):
        emp = EmpiricalDistribution(kind="exit_cdf", n_total=100_000, n_censored=100_000,
                                    grid=np.array([1.0]), values=np.array([0.0]))
        assert emp.band == pytest.approx(DKW_1E5, abs=1e-15)
        assert emp.band == pytest.approx(0.0043, abs=5e-5)

    def test_censoring_consistency(self):
        ens = self._drifted_ensemble(n_paths=5000)
        emp = empirical_cdf_exit(ens, [1.0])
        mass = np.count_nonzero(~np.isnan(ens.exit_time)) / emp.n_total
        assert mass + emp.n_censored / emp.n_total == pytest.approx(1.0, abs=1e-15)
        # CDF at the horizon equals the uncensored mass.
        assert emp.values[-1] == pytest.approx(mass, abs=1e-15)

    def test_samples_sorted(self):
        # Each value is the share of exit times at or before its time.
        ens = self._drifted_ensemble(n_paths=3000)
        times = np.linspace(0, 1, 5)
        emp = empirical_cdf_exit(ens, times)
        counts = [np.count_nonzero(ens.exit_time <= t) for t in times]
        np.testing.assert_array_equal(emp.values, np.asarray(counts) / ens.n_ok)
        assert np.all(np.diff(emp.values) >= 0)

    def test_min_ccdf_and_exit_cdf_agree_at_level(self):
        ens = self._drifted_ensemble(n_paths=5000)
        ccdf = empirical_ccdf_min(ens, [ens.level])
        exit_cdf = empirical_cdf_exit(ens, [ens.config.horizon])
        assert ccdf.values[0] + exit_cdf.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_max_cdf_complements_entry(self):
        sys = const_system_1d(1.0, 0.0, 1.0)
        cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=5000, seed=13)
        ens = simulate_paths(sys, identity_barrier(), NONE_POLICY, [-1.0], cfg)
        q = empirical_cdf_max(ens, [ens.level])
        n = empirical_cdf_entry(ens, [ens.config.horizon])
        assert q.values[0] + n.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_after_exclusions_raises(self):
        ens = self._drifted_ensemble(n_paths=10)
        ens.excluded[:] = True
        with pytest.raises(DataError, match="excluded"):
            empirical_cdf_exit(ens, [1.0])


class TestBridgeExactIn1D:
    """For a constant-coefficient 1D system the Euler step is exact and so
    is the sampled bridge extremum: all four curves match the closed forms
    at any step, event times at its multiples."""

    @staticmethod
    def _ensemble(x0, dt, seed):
        cfg = PathConfig(dt=dt, horizon=1.0, n_paths=100_000, seed=seed)
        return simulate_paths(const_system_1d(1.0, 0.0, 1.0), identity_barrier(), NONE_POLICY,
                              [x0], cfg)

    def test_extrema_match_the_bridge_formula(self):
        a = np.array([0.3, -1e-170, 5.0, 0.0, 2.0, -1.0])
        b = np.array([0.1, 2e-170, 5.0, 0.0, -3.0, 4.0])
        low, high = mc_oracle._bridge_extrema(a, b, np.zeros(a.size))
        np.testing.assert_array_equal(low, np.minimum(a, b))
        np.testing.assert_array_equal(high, np.maximum(a, b))
        spread = np.array([0.01, 0.5, 2.0, 1e-3, 0.7, 1e-12])
        low, high = mc_oracle._bridge_extrema(a, b, spread)
        root = np.sqrt((b - a) ** 2 + 4.0 * spread)
        np.testing.assert_allclose(low, (a + b - root) / 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(high, (a + b + root) / 2, rtol=0, atol=1e-15)
        assert np.all(low <= np.minimum(a, b)) and np.all(high >= np.maximum(a, b))

    # 1/300 takes more steps than BRIDGE_STEPS, so its bridge draws come in chunks.
    @pytest.mark.parametrize("dt, seed", [(1.0, 31), (0.1, 32), (0.01, 33), (1 / 300, 34)])
    def test_four_curves_within_dkw_band(self, dt, seed):
        times = dt * np.arange(1, int(round(1.0 / dt)) + 1)
        exit_ens = self._ensemble(1.0, dt, seed)
        entry_ens = self._ensemble(-1.0, dt, seed + 100)
        min_levels = np.array([-0.5, 0.0, 0.5, 0.9])
        max_levels = np.array([-0.5, 0.0, 0.5, 1.5])
        curves = [
            (empirical_cdf_exit(exit_ens, times),
             analytic_first_passage(1.0, 1.0, 1.0, 0.0, times)),
            (empirical_cdf_entry(entry_ens, times),
             analytic_first_passage(-1.0, 1.0, 1.0, 0.0, times)),
            (empirical_ccdf_min(exit_ens, min_levels),
             [1.0 - analytic_first_passage(1.0, 1.0, 1.0, y, 1.0) for y in min_levels]),
            (empirical_cdf_max(entry_ens, max_levels),
             [1.0 - analytic_first_passage(-1.0, 1.0, 1.0, y, 1.0) for y in max_levels]),
        ]
        for emp, exact in curves:
            assert emp.band == pytest.approx(DKW_1E5, abs=1e-12)
            gap = np.max(np.abs(emp.values - np.asarray(exact)))
            assert gap <= emp.band, f"{emp.kind} at dt {dt}: gap {gap:.2e}"


class TestKsDistance:
    def test_identical_tables_zero(self):
        t = np.linspace(0, 1, 11)
        v = np.linspace(0, 0.5, 11)
        assert ks_distance(CdfTable(t, v), CdfTable(t, v)) == 0.0

    def test_constant_offset(self):
        t = np.linspace(0, 1, 11)
        v = np.linspace(0, 0.5, 11)
        assert ks_distance(CdfTable(t, v), CdfTable(t, v + 0.01)) == pytest.approx(
            0.01, abs=1e-15)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(DataError, match="common evaluation grid"):
            ks_distance(CdfTable([0.0, 1.0], [0.0, 1.0]),
                        CdfTable([0.0, 2.0], [0.0, 1.0]))

    def test_pde_vs_analytic_tables(self, drifted_bm):
        from safeprob import NumericsConfig, QuerySpec, exit_time_cdf
        num = NumericsConfig(box_lo=(0.0,), box_hi=(8.0,), cells=(800,), dt=1e-3)
        q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=num)
        res = exit_time_cdf(drifted_bm.system, drifted_bm.barrier, drifted_bm.policy, q)
        ana = analytic_first_passage(1.0, 1.0, 1.0, 0.0, res.times)
        d = ks_distance(CdfTable(res.times, res.values[0]),
                        CdfTable(res.times, np.asarray(ana)))
        assert d <= 5e-3


class TestFilteredSimulation:
    def test_zero_cbf_paths_run_clean(self):
        ex = make_example("double_integrator")
        cfg = PathConfig(dt=1e-3, horizon=0.25, n_paths=2000, seed=77)
        ens = simulate_paths(ex.system, ex.barrier, ex.policy, ex.x0, cfg)
        assert ens.n_diverged == 0
        assert ens.n_infeasible == 0
        assert ens.n_ok == 2000

    def test_horizon_shorter_than_dt_rejected(self):
        with pytest.raises(DataError, match="horizon"):
            PathConfig(dt=0.5, horizon=0.1, n_paths=10, seed=1)

    def test_bad_seed_rejected(self):
        with pytest.raises(DataError, match="seed"):
            PathConfig(dt=0.1, horizon=1.0, n_paths=10, seed=-1)

    @pytest.mark.parametrize("field", ["dt", "horizon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        kw = {"dt": 0.1, "horizon": 1.0, "n_paths": 10, "seed": 1, field: value}
        with pytest.raises(DataError, match=f"^{field} must be finite$"):
            PathConfig(**kw)
