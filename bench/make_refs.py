"""Regenerate the stored references of the benchmark in bench/refs/.

    python3 bench/make_refs.py [--only NAME ...]

``pde_2d_filter`` and ``pde_3d_factor``: 100k-path Monte Carlo exit-time
CDFs at the workloads' query states and tabulation times.  A reference is
always made from its fixed seed in ``SEEDS``, which is also written into the
file.  Run this after a change to the MC oracle or the
PDE method, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from safeprob import mc_oracle  # noqa: E402

REF_PATHS = 100_000
REF_DT = 5e-4
SEEDS = {"pde_2d_filter": 20261017, "pde_3d_factor": 20261018}


def mc_reference(name: str, params: dict, seed: int) -> dict:
    ex = workloads.make_example(params["example"])
    times = np.linspace(0.0, params["horizon"], params["n_times"])
    curves = []
    for x0 in params["states"]:
        pc = mc_oracle.PathConfig(dt=REF_DT, horizon=params["horizon"], n_paths=REF_PATHS,
                                  seed=seed)
        ens = mc_oracle.simulate_paths(ex.system, ex.barrier, ex.policy, x0, pc)
        if ens.n_ok != REF_PATHS:
            raise RuntimeError(f"{name}: {REF_PATHS - ens.n_ok} reference paths excluded")
        curves.append(mc_oracle.empirical_cdf_exit(ens, times).values.tolist())
    return {"method": "monte_carlo", "seed": seed, "n_paths": REF_PATHS, "dt": REF_DT,
            "dkw_half_width": checks.dkw_half_width(REF_PATHS), "times": times.tolist(),
            "exit_cdf": curves}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--only", nargs="+", choices=("pde_2d_filter", "pde_3d_factor"))
    args = p.parse_args(argv)
    params = {"pde_2d_filter": workloads.PDE_2D, "pde_3d_factor": workloads.PDE_3D}
    for name in args.only or params:
        path = workloads.REFS / f"{name}.json"
        t0 = time.perf_counter()
        ref = mc_reference(name, params[name], SEEDS[name])
        ref["params"] = {k: params[name][k] for k in workloads.REF_KEYS if k in params[name]}
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"{path.name}: {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
