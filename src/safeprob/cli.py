"""Command-line front end: solve | mc | validate | report.

The commands only sequence the work; ``safeprob.artifacts`` names, writes
and reads every file.

Exit codes: 0 success, 1 validation checks failed, 2 configuration or
data error, 3 solver error, 4 path-divergence threshold exceeded.
"""

from __future__ import annotations

import argparse
import sys as _sys

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
    event_time_cdf,
    monotonicity_violation,
    solve_distribution,
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

def _query_spec(cfg: ExperimentConfig) -> QuerySpec:
    return QuerySpec(states=cfg.query_states(), horizon=cfg.query_horizon(),
                     numerics=cfg.numerics(), level=cfg.query_level(),
                     times=cfg.query_times())


def cmd_solve(cfg: ExperimentConfig) -> int:
    system, barrier, policy = cfg.models()
    q = _query_spec(cfg)
    kind = cfg.query_kind()
    result = solve_distribution(kind, system, barrier, policy, q, config_hash=cfg.hash)
    out = cfg.output_dir()
    files = write_result(result, out, cfg.hash)
    files.append(write_manifest(out, cfg.hash, "solve", files, cfg.doc))
    for i, x in enumerate(result.states):
        print(f"{kind} at state {x.tolist()}, level {result.level}, "
              f"T={result.times[-1]}: {result.values[i, -1]:.6f}")
    print(f"wrote {len(files)} files to {out}")
    return EXIT_OK


def _mc_estimates(cfg: ExperimentConfig, ens, times):
    conf = cfg.mc_confidence()
    # The time-axis estimates come first: with every path excluded they
    # raise DataError before the level span below reduces an empty array.
    estimates = {"exit_cdf": empirical_cdf_exit(ens, times, conf),
                 "entry_cdf": empirical_cdf_entry(ens, times, conf)}
    span_lo = float(np.min(ens.min_phi[ens.ok]))
    span_hi = float(np.max(ens.max_phi[ens.ok]))
    if span_lo == span_hi:
        span_lo -= 0.5
        span_hi += 0.5
    levels = np.linspace(span_lo, span_hi, 101)
    estimates["min_ccdf"] = empirical_ccdf_min(ens, levels, conf)
    estimates["max_cdf"] = empirical_cdf_max(ens, levels, conf)
    return estimates


def _simulate(cfg: ExperimentConfig, system, barrier, policy, x0, level):
    """Simulate the configured ensemble; raise DivergenceError when more than
    ``mc.max_divergence_fraction`` of its paths were excluded."""
    pc = cfg.path_config()
    ens = simulate_paths(system, barrier, policy, x0, pc, level=level)
    frac = (ens.n_diverged + ens.n_infeasible) / pc.n_paths
    if frac > cfg.mc_max_divergence():
        raise DivergenceError(
            f"{ens.n_diverged} diverged and {ens.n_infeasible} infeasible paths "
            f"({frac:.2%}) exceed the allowed fraction {cfg.mc_max_divergence():.2%}")
    return ens


def cmd_mc(cfg: ExperimentConfig) -> int:
    system, barrier, policy = cfg.models()
    ens = _simulate(cfg, system, barrier, policy, cfg.query_states()[0],
                    cfg.query_level())
    pc = ens.config
    times = cfg.query_times()
    if times is None:
        times = np.linspace(0.0, pc.horizon, 101)
    estimates = _mc_estimates(cfg, ens, times)
    out = cfg.output_dir()
    event_log = bool(cfg.doc.get("mc", {}).get("event_log", False))
    files = write_empirical(estimates, ens, out, cfg.hash, event_log=event_log)
    files.append(write_manifest(out, cfg.hash, "mc", files, cfg.doc))
    emp = estimates["exit_cdf"]
    print(f"simulated {pc.n_paths} paths (excluded {ens.n_diverged}+{ens.n_infeasible}); "
          f"P(exit<={times[-1]}) = {emp.values[-1]:.4f} +- {emp.band:.4f}")
    print(f"wrote {len(files)} files to {out}")
    return EXIT_OK


def _empirical_event_table(cfg, ens, times, kind):
    conf = cfg.mc_confidence()
    if KIND_TABLE[kind].event == "exit":
        return empirical_cdf_exit(ens, times, conf)
    return empirical_cdf_entry(ens, times, conf)


def cmd_validate(cfg: ExperimentConfig) -> int:
    section = cfg.doc.get("validation", {})
    tol = cfg.tolerances()
    checks = []

    def add(name, value, tolerance):
        entry = {"name": name, "value": value, "tolerance": tolerance,
                 "passed": bool(value is None or value <= tolerance)}
        checks.append(entry)

    if "pde_artifact" in section or "mc_artifact" in section:
        if not ("pde_artifact" in section and "mc_artifact" in section):
            raise ConfigError("artifact comparison needs both pde_artifact and mc_artifact",
                              "validation")
        _, pde_table = load_table(section["pde_artifact"])
        _, mc_table = load_table(section["mc_artifact"])
        add("mc_ks", ks_distance(pde_table, mc_table), tol["mc_ks"])
    else:
        system, barrier, policy = cfg.models()
        q = _query_spec(cfg)
        kind = cfg.query_kind()
        result = solve_distribution(kind, system, barrier, policy, q, config_hash=cfg.hash)
        ens = _simulate(cfg, system, barrier, policy, q.states[0], result.level)
        emp = _empirical_event_table(cfg, ens, result.times, kind)
        pde_event = event_time_cdf(result)[0]
        add("mc_ks", ks_distance(CdfTable(result.times, pde_event), emp.table),
            tol["mc_ks"])
        if "analytic" in section:
            ana = section["analytic"]
            ref = analytic_first_passage(ana["x0"], ana["drift"], ana["vol"],
                                         result.level, result.times)
            add("analytic_ks",
                ks_distance(CdfTable(result.times, pde_event),
                            CdfTable(result.times, np.asarray(ref))),
                tol["analytic_ks"])
        # F + G - 1 for the kind and its complement starts at 0, a backward-Euler
        # step moves it by at most dt * row_sum_defect, and F, G in [0, 1] cap it.
        add("complementarity", min(1.0, q.horizon * result.diagnostics["row_sum_defect"]),
            tol["complementarity"])
        add("monotonicity", monotonicity_violation(result), tol["monotonicity"])
        add("boundary", result.diagnostics.get("boundary_sensitivity"), tol["boundary"])

    all_pass = all(c["passed"] for c in checks)
    path = write_validation(cfg.output_dir(), cfg.hash, all_pass, checks)
    for c in checks:
        shown = "skipped" if c["value"] is None else f"{c['value']:.3e}"
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {shown} "
              f"(tolerance {c['tolerance']:.3e})")
    print(f"report: {path}")
    return EXIT_OK if all_pass else EXIT_CHECKS_FAILED


def cmd_report(cfg: ExperimentConfig) -> int:
    out = cfg.output_dir()
    files = write_report(out, cfg.query_kind(), cfg.hash)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.override)
    if args.out is not None:
        overrides.append(f"output.dir={args.out}")
    if args.seed is not None:
        overrides.append(f"mc.seed={args.seed}")
    try:
        cfg = ExperimentConfig.from_file(args.config, overrides)
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
