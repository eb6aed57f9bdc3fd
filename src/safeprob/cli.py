"""Command-line front end: solve | mc | validate | report.

The commands only sequence the work; ``safeprob.artifacts`` names, writes
and reads every file.

Exit codes: 0 success, 1 validation checks failed, 2 configuration or
data error, 3 solver error, 4 path-divergence threshold exceeded.
"""

from __future__ import annotations

import argparse
import sys as _sys
import warnings

import numpy as np

from .artifacts import (
    load_table,
    write_empirical,
    write_manifest,
    write_report,
    write_result,
    write_validation,
)
from .config import ExperimentConfig
from .distributions import (
    KIND_TABLE,
    QuerySpec,
    SafeProbWarning,
    event_time_cdf,
    monotonicity_violation,
    solve_distribution,
    tabulation_times,
)
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    InfeasibilityError,
    SafeProbError,
    SolverError,
)
from .mc_oracle import (
    CdfTable,
    PathConfig,
    analytic_first_passage,
    empirical_ccdf_min,
    empirical_cdf_entry,
    empirical_cdf_exit,
    empirical_cdf_max,
    ks_distance,
    simulate_paths,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIVERGENCE = 4

# The tolerance of each check ``validate`` makes, and the largest fraction
# of an ensemble's paths that may be excluded before ``mc`` and ``validate``
# exit 4.
TOLERANCES = {"mc_ks": 0.02, "analytic_ks": 5e-3, "complementarity": 1e-6,
              "monotonicity": 1e-8, "boundary": 1e-3}
MAX_DIVERGENCE_FRACTION = 0.01


def _query(cfg: ExperimentConfig, n: int) -> dict:
    """The query's QuerySpec fields but numerics, for a system of dimension n."""
    states = cfg.get("query.states")
    if not states or any(len(x) != n for x in states):
        raise ConfigError(f"states must be a non-empty list of {n}-vectors", "query.states")
    return {"states": np.asarray(states, dtype=float),
            "horizon": float(cfg.get("query.horizon")),
            "level": float(cfg.get("query.level")),
            "times": cfg.query_times()}


def _path_config(cfg: ExperimentConfig, horizon: float) -> PathConfig:
    dt = float(cfg.get("mc.dt"))
    if dt > horizon:
        raise ConfigError(f"dt must not exceed the query horizon {horizon}", "mc.dt")
    return PathConfig(dt=dt, horizon=horizon,
                      n_paths=int(cfg.get("mc.n_paths")), seed=int(cfg.get("mc.seed")))


def cmd_solve(cfg: ExperimentConfig) -> int:
    kind = cfg.get("query.kind")
    out = cfg.get("output.dir")
    system, barrier, policy = cfg.models()
    q = QuerySpec(numerics=cfg.numerics(), **_query(cfg, system.n))
    result = solve_distribution(kind, system, barrier, policy, q, config_hash=cfg.hash)
    files = write_result(result, out, cfg.hash)
    files.append(write_manifest(out, cfg.hash, "solve", files, cfg.doc))
    for i, x in enumerate(result.states):
        print(f"{kind} at state {x.tolist()}, level {result.level}, "
              f"T={result.times[-1]}: {result.values[i, -1]:.6f}")
    print(f"wrote {len(files)} files to {out}")
    return EXIT_OK


# The empirical CDF of each passage time.
_EMPIRICAL_CDF = {"exit": empirical_cdf_exit, "entry": empirical_cdf_entry}


def _mc_estimates(ens, event, times):
    """The curve of the one passage the paths can make, ``event``, over
    ``times``, and the running-extremum curves over the levels they span."""
    span_lo = float(np.min(ens.min_phi[ens.ok]))
    span_hi = float(np.max(ens.max_phi[ens.ok]))
    if span_lo == span_hi:
        span_lo -= 0.5
        span_hi += 0.5
    levels = np.linspace(span_lo, span_hi, 101)
    return {f"{event}_cdf": _EMPIRICAL_CDF[event](ens, times),
            "min_ccdf": empirical_ccdf_min(ens, levels),
            "max_cdf": empirical_cdf_max(ens, levels)}


def _simulate(models, states, level, pc: PathConfig):
    """Simulate the ensemble from the first query state; raise DivergenceError
    when more than MAX_DIVERGENCE_FRACTION of its paths were excluded."""
    if len(states) > 1:
        warnings.warn(f"Monte Carlo simulates the first of {len(states)} query states "
                      f"only; {len(states) - 1} not simulated", SafeProbWarning)
    ens = simulate_paths(*models, states[0], pc, level=level)
    frac = (ens.n_diverged + ens.n_infeasible) / pc.n_paths
    if frac > MAX_DIVERGENCE_FRACTION:
        raise DivergenceError(
            f"{ens.n_diverged} diverged and {ens.n_infeasible} infeasible paths "
            f"({frac:.2%}) exceed the allowed fraction {MAX_DIVERGENCE_FRACTION:.2%}")
    return ens


def cmd_mc(cfg: ExperimentConfig) -> int:
    models = cfg.models()
    query = _query(cfg, models[0].n)
    pc = _path_config(cfg, query["horizon"])
    out = cfg.get("output.dir")
    ens = _simulate(models, query["states"], query["level"], pc)
    times = tabulation_times(pc.horizon, query["times"])
    event = KIND_TABLE[cfg.get("query.kind")].event
    estimates = _mc_estimates(ens, event, times)
    files = write_empirical(estimates, ens, out, cfg.hash)
    files.append(write_manifest(out, cfg.hash, "mc", files, cfg.doc))
    emp = estimates[f"{event}_cdf"]
    print(f"simulated {pc.n_paths} paths (excluded {ens.n_diverged}+{ens.n_infeasible}); "
          f"P({event}<={times[-1]}) = {emp.values[-1]:.4f} +- {emp.band:.4f}")
    print(f"wrote {len(files)} files to {out}")
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig) -> int:
    pde_artifact = cfg.get("validation.pde_artifact")
    mc_artifact = cfg.get("validation.mc_artifact")
    analytic = cfg.get("validation.analytic")
    out = cfg.get("output.dir")
    checks = []

    def add(name, value, band=None, mc_values=None):
        check = {"name": name, "value": value, "tolerance": TOLERANCES[name],
                 "passed": bool(value is None or value <= TOLERANCES[name])}
        if band is not None:
            # An estimate whose DKW band reaches the tolerance cannot tell a
            # passing curve from a failing one, and a Monte Carlo curve
            # constant over the tabulation saw no passage in it, so it has
            # no event to compare: both are recorded, not warned.
            check["band"] = band
            if band >= TOLERANCES[name]:
                check["underpowered"] = True
            if np.ptp(mc_values) == 0:
                check["vacuous"] = True
        checks.append(check)

    if pde_artifact is not None or mc_artifact is not None:
        if pde_artifact is None or mc_artifact is None:
            raise ConfigError("artifact comparison needs both pde_artifact and mc_artifact",
                              "validation")
        pde_kind, pde_table, _ = load_table(pde_artifact)
        mc_kind, mc_table, mc_band = load_table(mc_artifact)
        spec = KIND_TABLE.get(pde_kind)
        if spec is None:
            raise ConfigError(f"{pde_kind!r} is not a distribution kind",
                              "validation.pde_artifact")
        if mc_kind != f"{spec.event}_cdf":
            raise ConfigError(f"a {pde_kind} result needs an {spec.event}_cdf artifact, "
                              f"not {mc_kind!r}", "validation.mc_artifact")
        # Both curves compare as the CDF of the passage time of the kind.
        if not spec.increasing:
            pde_table = CdfTable(pde_table.points, 1.0 - pde_table.values)
        add("mc_ks", ks_distance(pde_table, mc_table), mc_band, mc_table.values)
    else:
        kind = cfg.get("query.kind")
        models = cfg.models()
        q = QuerySpec(numerics=cfg.numerics(), **_query(cfg, models[0].n))
        pc = _path_config(cfg, q.horizon)
        result = solve_distribution(kind, *models, q, config_hash=cfg.hash)
        ens = _simulate(models, q.states, result.level, pc)
        pde_event = CdfTable(result.times, event_time_cdf(result)[0])
        emp = _EMPIRICAL_CDF[KIND_TABLE[kind].event](ens, result.times)
        add("mc_ks", ks_distance(pde_event, emp.table), emp.band, emp.values)
        if analytic is not None:
            ref = analytic_first_passage(analytic["x0"], analytic["drift"], analytic["vol"],
                                         result.level, result.times)
            add("analytic_ks", ks_distance(pde_event, CdfTable(result.times, np.asarray(ref))))
        # F + G - 1 for the kind and its complement starts at 0; in exact
        # arithmetic a step moves it by at most dt times row_sum_defect, the sum
        # of the per-axis factors' row-sum defects, and F, G in [0, 1] cap it.
        # The solves' rounding, 3e-13 at most on the shipped configs, is not in
        # this bound and is far under the tolerance.
        add("complementarity", min(1.0, q.horizon * result.diagnostics["row_sum_defect"]))
        add("monotonicity", monotonicity_violation(result))
        add("boundary", result.diagnostics.get("boundary_sensitivity"))

    all_pass = all(c["passed"] for c in checks)
    path = write_validation(out, cfg.hash, all_pass, checks)
    for c in checks:
        shown = "skipped" if c["value"] is None else f"{c['value']:.3e}"
        band = "" if "band" not in c else f", band {c['band']:.3e}"
        flag = "".join(f", {key}" for key in ("underpowered", "vacuous") if c.get(key))
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {shown} "
              f"(tolerance {c['tolerance']:.3e}{band}{flag})")
    print(f"report: {path}")
    return EXIT_OK if all_pass else EXIT_CHECKS_FAILED


def cmd_report(cfg: ExperimentConfig) -> int:
    out = cfg.get("output.dir")
    files = write_report(out, cfg.get("query.kind"), cfg.hash)
    files.append(write_manifest(out, cfg.hash, "report", files, cfg.doc))
    print(f"wrote {len(files)} files to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeprob",
        description="Safety invariance/recovery distributions: PDE solves, "
                    "Monte Carlo validation, reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("solve", "solve a distribution query"),
                            ("mc", "simulate closed-loop paths"),
                            ("validate", "cross-check PDE, MC, and analytic references"),
                            ("report", "emit plot-ready tables from artifacts")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="MC seed override")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="dotted-path config override")
    return parser


_COMMANDS = {"solve": cmd_solve, "mc": cmd_mc, "validate": cmd_validate,
             "report": cmd_report}


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=_sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.override)
    if args.out is not None:
        overrides.append(f"output.dir={args.out}")
    if args.seed is not None:
        overrides.append(f"mc.seed={args.seed}")
    try:
        cfg = ExperimentConfig.from_file(args.config, overrides)
        # One stderr line per warning; catch_warnings restores the caller's state.
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](cfg)
    except (ConfigError, DataError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_CONFIG
    except (SolverError, InfeasibilityError) as err:
        print(f"solver error: {err}", file=_sys.stderr)
        return EXIT_SOLVER
    except DivergenceError as err:
        print(f"divergence: {err}", file=_sys.stderr)
        return EXIT_DIVERGENCE
    except SafeProbError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_CHECKS_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
