"""Zero-CBF double-integrator study on the unit disk.

Solves the exit-time CDF from the safe disk under the minimum-norm
rate-constraint filter, validates it against a closed-loop Monte Carlo
ensemble, and reports where the filter is active.

Usage:  python scripts/run_disk_filter_2d.py [--paths N] [--horizon T] [--out DIR]
"""

import argparse
import time

import numpy as np

from safeprob import (
    CdfTable,
    NumericsConfig,
    PathConfig,
    QuerySpec,
    empirical_cdf_exit,
    exit_time_cdf,
    ks_distance,
    make_example,
    simulate_paths,
)
from safeprob.artifacts import write_result
from safeprob.system_model import closed_loop_control_batch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--horizon", type=float, default=1.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    ex = make_example("double_integrator")
    times = np.linspace(0.0, args.horizon, 101)
    num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=ex.cells, dt=ex.dt)
    q = QuerySpec(states=[ex.x0], horizon=args.horizon, times=times, numerics=num)

    t0 = time.perf_counter()
    res = exit_time_cdf(ex.system, ex.barrier, ex.policy, q)
    t_pde = time.perf_counter() - t0
    print(f"PDE exit CDF at {list(ex.x0)}: G(T={args.horizon}) = "
          f"{res.values[0, -1]:.5f}  [{t_pde:.1f}s, "
          f"{res.diagnostics['interior_nodes']} interior nodes]")

    t0 = time.perf_counter()
    # The shipped config's mc.dt.
    cfg = PathConfig(dt=2e-3, horizon=args.horizon, n_paths=args.paths, seed=20240521)
    ens = simulate_paths(ex.system, ex.barrier, ex.policy, ex.x0, cfg)
    t_mc = time.perf_counter() - t0
    emp = empirical_cdf_exit(ens, times)
    ks = ks_distance(CdfTable(times, res.values[0]), emp.table)
    print(f"MC exit CDF: G(T) = {emp.values[-1]:.5f} +- {emp.band:.4f}  "
          f"[{t_mc:.1f}s, excluded {ens.n_diverged}+{ens.n_infeasible}]")
    print(f"KS(PDE, MC) = {ks:.4f}")

    # Where does the filter actually intervene?
    rng = np.random.default_rng(5)
    states = rng.uniform(np.asarray(ex.box_lo), np.asarray(ex.box_hi), (20_000, 2))
    inside = ex.barrier.phi_at(states) >= 0.0
    u, _ = closed_loop_control_batch(ex.policy, ex.system, ex.barrier, states[inside])
    active = np.abs(u[:, 0]) > 1e-12
    print(f"filter active at {active.mean():.1%} of sampled safe states "
          f"(max |u| = {np.abs(u).max():.2f})")

    if args.out:
        files = write_result(res, args.out, res.provenance["query_hash"])
        print(f"wrote {len(files)} artifacts to {args.out}")


if __name__ == "__main__":
    main()
