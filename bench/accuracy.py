"""1D accuracy per cost: exit_cdf error against the closed form, and solve time.

    python3 bench/accuracy.py

Solves drifted_bm_1d exit_cdf (X = 1 + t + W, level 0, horizon 1) on the box
[0, 8] at each (cells, dt) and prints the signed error of P(exit <= 1), the
largest gap over the tabulated times, and the median wall time of three solves.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from safeprob import distributions  # noqa: E402
from safeprob.distributions import NumericsConfig, QuerySpec  # noqa: E402
from safeprob.library import make_example  # noqa: E402

LADDER = ((200, 1e-2), (800, 1e-3), (3200, 1e-3))


def main() -> int:
    ex = make_example("drifted_bm_1d")
    times = np.linspace(0.0, 1.0, 101)
    exact = checks.first_passage_cdf(1.0, 1.0, 1.0, 0.0, times)
    print("| cells | dt | error at t=1 | max gap | solve s |")
    print("|---|---|---|---|---|")
    for cells, dt in LADDER:
        num = NumericsConfig(box_lo=(0.0,), box_hi=(8.0,), cells=(cells,), dt=dt)
        q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=num, times=times)
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            res = distributions.solve_distribution("exit_cdf", ex.system, ex.barrier,
                                                   ex.policy, q)
            walls.append(time.perf_counter() - t0)
        err = res.values[0, -1] - exact[-1]
        gap = checks.sup_gap(res.values[0], exact)
        print(f"| {cells} | {dt:g} | {err:+.1e} | {gap:.1e} | "
              f"{statistics.median(walls):.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
