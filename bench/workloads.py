"""The three benchmark workloads: their inputs, operations and checks.

A workload is built once per process (its set-up) and then runs rounds.
Every round attempts the same operations in the same order, so the share
of failed operations is the same in every run.  An operation either
completes, raises ``KnownFault`` (a fault of the program this benchmark
counts on purpose), or raises another exception (counted as failed too;
its checks did not run, so it is also recorded in ``failures`` and makes the
run incorrect).  Wrong outputs are not failures: they are recorded in
``failures`` and make the run incorrect.

The program is reached through module attributes at call time
(``distributions.solve_distribution``, not a local alias) so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from safeprob import cli, distributions
from safeprob.distributions import NumericsConfig, QuerySpec
from safeprob.library import make_example

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS = BENCH_DIR / "refs"

# The 1D example is X = x0 + t + W (unit drift, unit volatility), level 0.
DRIFT_1D = 1.0
VOL_1D = 1.0
LEVEL_1D = 0.0

# Shared parameters of the workloads and of the references made for them.
PDE_2D = {"example": "double_integrator", "states": [[0.0, 0.0]], "horizon": 1.0,
          "n_times": 101}
# cells 44 x 44 x 24 plus the one-cell halo: 47 * 47 * 27 = 59,643 nodes.  The
# query state is inside the disk, about 1.3 cells from the level set.
PDE_3D = {"example": "unicycle_disk", "states": [[0.66, 0.66, 2.0]], "horizon": 0.2,
          "n_times": 21, "cells": [44, 44, 24]}
# double_integrator exit_cdf to horizon 0.2, solved once per BLAS setting.
REPRO = {"example": "double_integrator", "states": [[0.0, 0.0]], "horizon": 0.2}

KS_TOL_2D = 0.02
# 3D: the measured PDE-MC gap at the query state (0.0233) plus the 100k-path
# DKW half-width of the reference (0.0043), rounded up.  The PDE is
# deterministic, so the check passes or fails for every seed alike.
KS_TOL_3D = 0.03


class KnownFault(Exception):
    """An operation that fails because of a known fault of the program."""


def round_seed(seed: int, rnd: int) -> int:
    """MC seed of one round, a fixed function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, rnd]).generate_state(1, np.uint64)[0])


# The query parameters a stored reference depends on.
REF_KEYS = ("example", "states", "horizon", "n_times")


def load_ref(name: str, params: dict) -> dict:
    """A stored reference, refused if it was made for another query."""
    path = REFS / f"{name}.json"
    with open(path, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    for key in REF_KEYS:
        val = params.get(key)
        if ref["params"].get(key) != val:
            raise ValueError(f"{path} was made for {key}={ref['params'].get(key)!r}, "
                             f"the workload uses {val!r}; run bench/make_refs.py")
    return ref


def pde_query(params: dict):
    ex = make_example(params["example"])
    cells = tuple(params.get("cells", ex.cells))
    num = NumericsConfig(box_lo=ex.box_lo, box_hi=ex.box_hi, cells=cells, dt=ex.dt)
    times = None
    if "n_times" in params:
        times = np.linspace(0.0, params["horizon"], params["n_times"])
    q = QuerySpec(states=params["states"], horizon=params["horizon"], numerics=num,
                  times=times)
    return ex, q


def repro_bytes() -> str:
    """Result bytes of the reproducibility solve, as hex."""
    ex, q = pde_query(REPRO)
    res = distributions.solve_distribution("exit_cdf", ex.system, ex.barrier, ex.policy, q)
    return res.values.tobytes().hex()


class Workload:
    name = ""
    # A run times at least this many rounds, however short ``--seconds`` is.
    min_rounds = 1
    # Times are rescaled to the host's reference speed (bench/calibrate.py).
    rescaled = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.failures = []
        self.gaps = {}

    def ops(self, rnd: int) -> list:
        raise NotImplementedError

    def record(self, fails, gap_name=None, gap=None) -> None:
        self.failures.extend(fails)
        if gap_name is not None:
            self.gaps.setdefault(gap_name, []).append(gap)


class Cli1D(Workload):
    """``safeprob.cli.main`` in-process on the 1D drifted-Brownian configs."""

    name = "cli_1d"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.exit_cfg = str(ROOT / "configs" / "drifted_bm_exit.json")
        self.rec_cfg = str(ROOT / "configs" / "drifted_bm_recovery.json")
        with open(self.exit_cfg, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(self.rec_cfg, encoding="utf-8") as fh:
            rec = json.load(fh)
        self.x0_exit = float(doc["query"]["states"][0][0])
        self.x0_entry = float(rec["query"]["states"][0][0])
        self.mc_dt = float(doc["mc"]["dt"])
        self.horizon = float(doc["query"]["horizon"])
        self.out_exit = os.path.join(workdir, "exit")
        self.out_rec = os.path.join(workdir, "recovery")

    def _run(self, argv, ok=(0,)) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc not in ok:
            raise RuntimeError(f"safeprob {' '.join(argv)} exited with {rc}")

    @staticmethod
    def _one(pattern: str) -> dict:
        paths = [p for p in glob.glob(pattern) if not p.endswith("_fields.json")]
        if len(paths) != 1:
            raise RuntimeError(f"expected one artifact matching {pattern}, found {paths}")
        with open(paths[0], encoding="utf-8") as fh:
            return json.load(fh)

    def _check_curve(self, out_dir, kind, x0) -> None:
        doc = self._one(os.path.join(out_dir, f"{kind}_*.json"))
        fails, gap = checks.check_closed_form(kind, doc["times"], doc["values"][0], x0,
                                              DRIFT_1D, VOL_1D, LEVEL_1D)
        self.record(fails, "pde_gap", gap)

    def solve_exit(self) -> None:
        self._run(["solve", "--config", self.exit_cfg, "--out", self.out_exit])
        self._check_curve(self.out_exit, "exit_cdf", self.x0_exit)

    def mc(self, seed) -> None:
        self._run(["mc", "--config", self.exit_cfg, "--out", self.out_exit,
                   "--seed", str(seed)])
        doc = self._one(os.path.join(self.out_exit, "mc_exit_cdf_*.json"))
        grid = np.asarray(doc["grid"])
        values = np.asarray(doc["values"])
        if grid[-1] != self.horizon:
            raise RuntimeError(f"MC exit curve ends at t={grid[-1]}, not the horizon")
        fails = checks.check_mc_exit(float(values[-1]), self.x0_exit, DRIFT_1D, VOL_1D,
                                     LEVEL_1D, self.horizon, self.mc_dt, doc["n_total"],
                                     doc["confidence"])
        fails += checks.curve_shape_failures("mc exit_cdf", values, increasing=True)
        gap = checks.sup_gap(values, checks.first_passage_cdf(self.x0_exit, DRIFT_1D, VOL_1D,
                                                              LEVEL_1D, grid))
        self.record(fails, "mc_gap", gap)

    def validate(self, seed) -> None:
        self._run(["validate", "--config", self.exit_cfg, "--out", self.out_exit,
                   "--seed", str(seed)], ok=(0, 1))
        self.record(checks.check_validate_report(
            self._one(os.path.join(self.out_exit, "validation_*.json"))))

    def report(self) -> None:
        self._run(["report", "--config", self.exit_cfg, "--out", self.out_exit])
        result = self._one(os.path.join(self.out_exit, "exit_cdf_*.json"))
        [curve] = glob.glob(os.path.join(self.out_exit, "report_curve_exit_cdf_*.csv"))
        table = np.loadtxt(curve, delimiter=",", skiprows=1, ndmin=2)
        if not (np.array_equal(table[:, -2], result["times"])
                and np.array_equal(table[:, -1], result["values"][0])):
            self.record(["report curve differs from the solve artifact it re-tabulates"])

    def solve_recovery(self) -> None:
        self._run(["solve", "--config", self.rec_cfg, "--out", self.out_rec])
        self._check_curve(self.out_rec, "entry_cdf", self.x0_entry)

    def ops(self, rnd):
        for d in (self.out_exit, self.out_rec):
            shutil.rmtree(d, ignore_errors=True)
        seed = round_seed(self.seed, rnd)
        return [self.solve_exit, lambda: self.mc(seed), lambda: self.validate(seed),
                self.report, self.solve_recovery]


class PdePair(Workload):
    """exit_cdf and its complement invariance_ccdf, checked against an MC reference."""

    params: dict = {}
    ks_tol = 0.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ex, self.q = pde_query(self.params)
        self.ref = load_ref(self.name, self.params)
        self.exit = None

    def _solve(self, kind):
        return distributions.solve_distribution(kind, self.ex.system, self.ex.barrier,
                                                self.ex.policy, self.q)

    def solve_exit(self) -> None:
        self.exit = self._solve("exit_cdf")

    def solve_complement(self) -> None:
        inv = self._solve("invariance_ccdf")
        exit_values, self.exit = self.exit.values, None
        if not np.array_equal(inv.times, self.ref["times"]):
            raise RuntimeError("solve times differ from the reference times")
        fails, ks = checks.check_pde_pair(self.name, exit_values, inv.values,
                                          self.ref["exit_cdf"], self.ks_tol)
        self.record(fails, "pde_gap", ks)

    def ops(self, rnd):
        return [self.solve_exit, self.solve_complement]


class Pde2DFilter(PdePair):
    """double_integrator zero-CBF filter on the shipped 2D grid."""

    name = "pde_2d_filter"
    params = PDE_2D
    ks_tol = KS_TOL_2D
    # A round takes about 10 s; wall_s is the median of at least two.
    min_rounds = 2

    def reproducible(self) -> None:
        """Same bytes at the default BLAS thread count and with one thread.

        The solve runs in this process and in a child with the other setting:
        run.py gives this workload's process one OpenBLAS thread, so the
        child then runs at the default count.
        """
        here = repro_bytes()
        env = dict(os.environ)
        if env.pop("OPENBLAS_NUM_THREADS", None) != "1":
            env["OPENBLAS_NUM_THREADS"] = "1"
        child = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "repro"],
                               env=env, capture_output=True, text=True, timeout=170,
                               check=True)
        there = child.stdout.strip().splitlines()[-1]
        if here != there:
            raise KnownFault("double_integrator exit_cdf result bytes differ between the "
                             "default BLAS thread count and OPENBLAS_NUM_THREADS=1")

    def ops(self, rnd):
        return super().ops(rnd) + [self.reproducible]


class Pde3DFactor(PdePair):
    """unicycle_disk gradient policy on a refined 3D grid: factorization-bound."""

    name = "pde_3d_factor"
    params = PDE_3D
    ks_tol = KS_TOL_3D
    # Raw times: the factorization runs on both cores through threaded BLAS,
    # and a single-threaded kernel timed between its 20-s operations tracks
    # neither its speed nor its slow stretches, which one 40-s round already
    # averages over.
    rescaled = False


WORKLOADS = {w.name: w for w in (Cli1D, Pde2DFilter, Pde3DFactor)}
