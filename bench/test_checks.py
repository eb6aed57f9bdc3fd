"""Each workload's correctness check accepts a right answer and rejects a
perturbed one.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _ref(name):
    return json.loads((BENCH_DIR / "refs" / f"{name}.json").read_text(encoding="utf-8"))


def _shift(curve, by):
    return np.clip(np.asarray(curve) + by, 0.0, 1.0)


# -- cli_1d ---------------------------------------------------------------

def test_closed_form_matches_hand_values():
    # X = 1 + t + W hits 0 by t=1: Phi(-2) + exp(-2) Phi(0).
    exit_p = checks.first_passage_cdf(1.0, 1.0, 1.0, 0.0, [1.0])[0]
    assert exit_p == pytest.approx(_phi(-2.0) + math.exp(-2.0) * 0.5, abs=1e-14)
    # X = -1 + t + W hits 0 by t=1: Phi(0) + exp(2) Phi(-2).
    entry_p = checks.first_passage_cdf(-1.0, 1.0, 1.0, 0.0, [1.0])[0]
    assert entry_p == pytest.approx(0.5 + math.exp(2.0) * _phi(-2.0), abs=1e-14)
    # Driftless reflection principle: 2 Phi(-1); nothing before t = 0.
    assert checks.first_passage_cdf(1.0, 0.0, 1.0, 0.0, [0.0, 1.0]).tolist() == \
        pytest.approx([0.0, 2.0 * _phi(-1.0)], abs=1e-14)


def test_bgk_beta():
    assert checks.BGK_BETA == pytest.approx(0.5826, abs=1e-4)


@pytest.mark.parametrize("x0", [1.0, -1.0])
def test_closed_form_check_rejects_shifted_curve(x0):
    times = np.linspace(0.0, 1.0, 101)
    exact = checks.first_passage_cdf(x0, 1.0, 1.0, 0.0, times)
    fails, gap = checks.check_closed_form("curve", times, exact + 4e-3 * (times > 0),
                                          x0, 1.0, 1.0, 0.0)
    assert fails == [] and gap == pytest.approx(4e-3)
    fails, _ = checks.check_closed_form("curve", times, _shift(exact, 0.05), x0, 1.0, 1.0, 0.0)
    assert any("closed form" in f for f in fails)


def test_mc_bracket_rejects_estimates_outside():
    lo, hi = checks.mc_exit_bracket(1.0, 1.0, 1.0, 0.0, 1.0, 1e-3, 20_000)
    # The 20k-path DKW band is 0.0096; the shifted law is 0.0860, the unshifted 0.0904.
    assert lo == pytest.approx(0.0860 - 0.0096, abs=2e-4)
    assert hi == pytest.approx(0.0904 + 0.0096, abs=2e-4)
    assert checks.check_mc_exit(0.0868, 1.0, 1.0, 1.0, 0.0, 1.0, 1e-3, 20_000) == []
    for p in (0.0868 + 0.05, 0.0868 - 0.05):
        assert checks.check_mc_exit(p, 1.0, 1.0, 1.0, 0.0, 1.0, 1e-3, 20_000)


def test_validate_report_must_pass():
    good = {"all_pass": True, "checks": [{"name": "mc_ks", "passed": True}]}
    bad = {"all_pass": False, "checks": [{"name": "mc_ks", "passed": False}]}
    assert checks.check_validate_report(good) == []
    assert checks.check_validate_report(bad) == ["validate report failed: mc_ks"]


# -- pde_2d_filter and pde_3d_factor ---------------------------------------

@pytest.mark.parametrize("name,tol", [("pde_2d_filter", workloads.KS_TOL_2D),
                                      ("pde_3d_factor", workloads.KS_TOL_3D)])
def test_pde_pair_check(name, tol):
    ref = np.asarray(_ref(name)["exit_cdf"])
    fails, ks = checks.check_pde_pair(name, ref, 1.0 - ref, ref, tol)
    assert fails == [] and ks < 1e-12

    shifted = _shift(ref, 0.05)
    fails, ks = checks.check_pde_pair(name, shifted, 1.0 - shifted, ref, tol)
    assert ks > tol and any("KS" in f for f in fails)

    fails, _ = checks.check_pde_pair(name, ref, 1.0 - ref + 1e-4, ref, tol)
    assert any("invariance - 1" in f for f in fails)

    bumped = ref.copy()
    bumped[:, -2] = bumped[:, -1] + 1e-3   # a step back in time at the end
    fails, _ = checks.check_pde_pair(name, bumped, 1.0 - bumped, ref, tol)
    assert any("decreases in time" in f for f in fails)
    assert any("increases in time" in f for f in fails)

    under = ref - 1e-3
    fails, _ = checks.check_pde_pair(name, under, 1.0 - under, ref, tol)
    assert any("leave [0, 1]" in f for f in fails)


def test_references_match_the_workloads():
    for name, params in (("pde_2d_filter", workloads.PDE_2D),
                         ("pde_3d_factor", workloads.PDE_3D)):
        ref = workloads.load_ref(name, params)
        assert np.array_equal(ref["times"], np.linspace(0.0, params["horizon"],
                                                        params["n_times"]))
    with pytest.raises(ValueError, match="make_refs"):
        workloads.load_ref("pde_2d_filter", dict(workloads.PDE_2D, horizon=0.5))


# -- tracing -----------------------------------------------------------------

def test_layer_self_times_partition_the_round():
    tr = tracing.Tracer()
    # distributions.solve [0, 10] > pde_engine.solve_ibvp [1, 9] > nested probe [2, 4]
    tr.spans += [["distributions.solve_distribution", 0.0, 10.0, -1, 0, None],
                 ["pde_engine.solve_ibvp", 1.0, 9.0, 0, 0, 0],
                 ["pde_engine.solve_ibvp", 2.0, 4.0, 1, 0, 0],
                 ["system_model.ControlSystem.f_at", 9.5, 9.75, 0, 0, None]]
    m = tr.round_metrics(0, wall_s=12.0)
    assert m["distributions.self_s"] == pytest.approx(10.0 - 8.0 - 0.25)
    assert m["pde_engine.self_s"] == pytest.approx(8.0)
    assert m["system_model.self_s"] == pytest.approx(0.25)
    assert m["trace.self_sum_s"] == pytest.approx(10.0)
    assert m["pde_engine.probe_s"] == pytest.approx(2.0)
    assert m["system_model.coeff_evals"] == 1
    assert m["distributions.solves"] == 1
