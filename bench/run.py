"""safeprob benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets the workload up, then repeats timed rounds of its
operations until ``--seconds`` have passed (always whole rounds, at least
the workload's ``min_rounds``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are end to end, measured with tracing off.
With ``--trace 1`` the run adds one round with spans recorded around every
layer, reports per-layer metrics and the tracing overhead, and writes the
spans to
``.bench_work/trace-<workload>-<seed>.jsonl``.  ``--workload all`` runs each
workload in its own process and prints one result line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
NAMES = ("cli_1d", "pde_2d_filter", "pde_3d_factor")
# Workloads whose process runs OpenBLAS with one thread.  numpy and scipy each
# load their own OpenBLAS, and each starts one thread per core: at the default
# thread count the 2D step's BLAS calls hand work between pools that together
# hold more threads than there are cores, and its round time follows the
# scheduler (12-14 s against 9-10 s single-threaded, one 1.2-s solve taking
# 13 s).  The default thread count stays measured by pde_3d_factor and by the
# reproducibility operation's child.
SINGLE_BLAS_THREAD = ("pde_2d_filter",)
# Set-up is measured in this many fresh processes; setup_s is their median.
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(name: str, seed: int, host) -> list:
    """Seconds from spawning a fresh interpreter until the workload is set up,
    each at the reference host speed if ``host`` (the calibrate module) is
    given."""
    samples, before = [], host.kernel_s() if host else None
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        child = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "setup", name,
                                str(seed)], capture_output=True, text=True, timeout=120,
                               check=True)
        t = float(child.stdout.strip().splitlines()[-1]) - t0
        if host:
            after = host.kernel_s()
            t, before = host.at_ref_speed(t, before, after), after
        samples.append(t)
    return samples


def run_rounds(wl, first_round: int, n_rounds: int | None, seconds: float,
               known_fault: type, host, tracer=None):
    """Whole rounds until ``seconds`` pass and at least ``wl.min_rounds`` ran
    (or exactly ``n_rounds``).

    Returns, for each round, its raw wall time and its wall time at the
    reference host speed (each operation rescaled by the calibration
    kernel's runs just before and after it, if ``host``, the calibrate
    module, is given; else the raw time), every kernel time, and the numbers
    of operations attempted and failed.

    An operation that raises ``known_fault`` is failed and leaves the run
    correct.  Any other exception is failed too, but its output went
    unchecked, so it also makes the run incorrect.
    """
    raw, scaled, kernels, attempted, failed, faults = [], [], [], 0, 0, set()
    if host:
        kernels.append(host.kernel_s())
    start = time.perf_counter()
    rnd = first_round
    while True:
        if tracer is not None:
            tracer.round = rnd
        raw.append(0.0)
        scaled.append(0.0)
        for op in wl.ops(rnd):
            attempted += 1
            t0 = time.perf_counter()
            try:
                op()
            except known_fault as err:
                failed += 1
                faults.add(str(err))
            except Exception as err:  # counted, and the run goes on
                failed += 1
                traceback.print_exc()
                wl.failures.append(f"round {rnd}: an operation raised "
                                   f"{type(err).__name__}: {err}")
            t = time.perf_counter() - t0
            raw[-1] += t
            if host:
                kernels.append(host.kernel_s())
                t = host.at_ref_speed(t, kernels[-2], kernels[-1])
            scaled[-1] += t
        rnd += 1
        if n_rounds:
            done = len(raw) >= n_rounds
        else:
            done = (len(raw) >= wl.min_rounds
                    and time.perf_counter() - start >= seconds)
        if done:
            break
    for msg in sorted(faults):
        print(f"known fault, counted as failed: {msg}", file=sys.stderr)
    return raw, scaled, kernels, attempted, failed


def run_one(args) -> int:
    if not (ROOT / "src" / "safeprob" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'safeprob'}; run from the root "
              "of a safeprob checkout", file=sys.stderr)
        return 2
    if args.workload in SINGLE_BLAS_THREAD:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    import tracing
    import workloads

    host = calibrate if workloads.WORKLOADS[args.workload].rescaled else None
    setup = measure_setup(args.workload, args.seed, host)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        walls, scaled, kernels, attempted, failed = run_rounds(
            wl, 0, None, args.seconds, workloads.KnownFault, host)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": statistics.median(setup), "wall_s": statistics.median(scaled),
                   "peak_rss_mb": peak_mb}
        summary = dict(metrics, raw_wall_s=statistics.median(walls),
                       kernel_s=statistics.median(kernels) if host else 0.0)
        for key, vals in wl.gaps.items():
            summary[f"max_{key}"] = max(vals)

        if args.trace:
            full = tracing.Tracer().install()
            [traced], [traced_scaled], t_kernels, t_att, t_fail = run_rounds(
                wl, len(walls), 1, 0.0, workloads.KnownFault, host, full)
            full.uninstall()
            attempted += t_att
            failed += t_fail
            metrics = full.round_metrics(len(walls), traced)
            if metrics["trace.self_sum_s"] > traced:
                wl.failures.append(f"layer self times {metrics['trace.self_sum_s']:.3f} s "
                                   f"exceed the traced round's wall time {traced:.3f} s")
            metrics["trace.untraced_wall_s"] = statistics.median(walls)
            metrics["trace.overhead"] = traced_scaled / statistics.median(scaled) - 1.0
            metrics["trace.kernel_s"] = statistics.median(kernels + t_kernels) if host else 0.0
            metrics["pde_engine.ref_gap"] = max(wl.gaps.get("pde_gap", [0.0]))
            metrics["mc_oracle.ref_gap"] = max(wl.gaps.get("mc_gap", [0.0]))
            full.write(str(WORK / f"trace-{args.workload}-{args.seed}.jsonl"),
                       f"{args.workload}:{args.seed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in wl.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"# {args.workload}: rounds={len(walls)} attempted={attempted} failed={failed} "
          + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    units = load_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                           "measured and listed in BENCHMARK.json")
    result = {"correct": not wl.failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def load_units(section: str) -> dict:
    """Metric name -> unit, for one metric section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_all(args) -> int:
    """Each workload in a fresh process; one result line per workload."""
    status = 0
    for name in NAMES:
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                str(args.seed), "--seconds", str(args.seconds), "--trace",
                                str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with {child.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
