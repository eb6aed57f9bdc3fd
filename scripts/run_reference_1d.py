"""Drifted-Brownian-motion reference study.

Solves all four safety distributions for the 1D unit-drift reference
system, cross-checks them against the closed-form first-passage law and a
Monte Carlo ensemble, and prints a comparison table.

Usage:  python scripts/run_reference_1d.py [--paths N] [--out DIR]
"""

import argparse
import time

import numpy as np

from safeprob import (
    CdfTable,
    NumericsConfig,
    PathConfig,
    QuerySpec,
    analytic_first_passage,
    convergence_cdf,
    empirical_cdf_entry,
    empirical_cdf_exit,
    entry_time_cdf,
    exit_time_cdf,
    invariance_ccdf,
    ks_distance,
    make_example,
    simulate_paths,
    summary_stats,
)
from safeprob.artifacts import write_result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=50_000)
    parser.add_argument("--out", default=None, help="write result artifacts here")
    args = parser.parse_args()

    ex = make_example("drifted_bm_1d")
    times = np.linspace(0.0, 1.0, 101)

    fwd = QuerySpec(states=[[1.0]], horizon=1.0, times=times,
                    numerics=NumericsConfig((0.0,), (8.0,), (800,), dt=1e-3))
    bwd = QuerySpec(states=[[-1.0]], horizon=1.0, times=times,
                    numerics=NumericsConfig((-8.0,), (0.0,), (800,), dt=1e-3))

    t0 = time.perf_counter()
    res = {
        "invariance_ccdf": invariance_ccdf(ex.system, ex.barrier, ex.policy, fwd),
        "exit_cdf": exit_time_cdf(ex.system, ex.barrier, ex.policy, fwd),
        "convergence_cdf": convergence_cdf(ex.system, ex.barrier, ex.policy, bwd),
        "entry_cdf": entry_time_cdf(ex.system, ex.barrier, ex.policy, bwd),
    }
    t_pde = time.perf_counter() - t0

    t0 = time.perf_counter()
    # The bridge-sampled ensemble is exact in 1D at any step; this is the
    # shipped configs' mc.dt.
    cfg = PathConfig(dt=1e-2, horizon=1.0, n_paths=args.paths, seed=20240801)
    fwd_ens = simulate_paths(ex.system, ex.barrier, ex.policy, [1.0], cfg)
    bwd_ens = simulate_paths(ex.system, ex.barrier, ex.policy, [-1.0], cfg)
    t_mc = time.perf_counter() - t0

    exit_emp = empirical_cdf_exit(fwd_ens, times)
    entry_emp = empirical_cdf_entry(bwd_ens, times)
    exit_ana = np.asarray(analytic_first_passage(1.0, 1.0, 1.0, 0.0, times))
    entry_ana = np.asarray(analytic_first_passage(-1.0, 1.0, 1.0, 0.0, times))

    rows = [
        ("invariance_ccdf", res["invariance_ccdf"].values[0, -1], 1.0 - exit_ana[-1],
         1.0 - exit_emp.values[-1]),
        ("exit_cdf", res["exit_cdf"].values[0, -1], exit_ana[-1], exit_emp.values[-1]),
        ("convergence_cdf", res["convergence_cdf"].values[0, -1], 1.0 - entry_ana[-1],
         1.0 - entry_emp.values[-1]),
        ("entry_cdf", res["entry_cdf"].values[0, -1], entry_ana[-1],
         entry_emp.values[-1]),
    ]
    print(f"\nvalue at horizon T=1 (PDE {t_pde:.1f}s, MC {t_mc:.1f}s, "
          f"{args.paths} paths, DKW +-{exit_emp.band:.4f})")
    print(f"{'distribution':<18}{'PDE':>10}{'analytic':>10}{'MC':>10}")
    for name, pde, ana, mc in rows:
        print(f"{name:<18}{pde:>10.5f}{ana:>10.5f}{mc:>10.5f}")

    ks_exit = ks_distance(CdfTable(times, res["exit_cdf"].values[0]), exit_emp.table)
    ks_entry = ks_distance(CdfTable(times, res["entry_cdf"].values[0]), entry_emp.table)
    print(f"\nKS(PDE, MC): exit {ks_exit:.4f}, entry {ks_entry:.4f}")

    stats = summary_stats(res["exit_cdf"])
    print(f"exit-time mean (lower bound over [0,1]): "
          f"{stats['mean_time_lower_bound'][0]:.4f}, "
          f"censored mass {stats['censored_mass'][0]:.4f}")

    if args.out:
        files = []
        for r in res.values():
            files += write_result(r, args.out, r.provenance["query_hash"])
        print(f"wrote {len(files)} artifacts to {args.out}")


if __name__ == "__main__":
    main()
