"""Deterministic CSV/JSON artifact writers and loaders.

File names embed the configuration hash so identical configs reproduce
identical artifact sets byte for byte.  Floats are written with repr, the
shortest round-trip form, and JSON keys are sorted; no timestamps or
machine identity enter any output.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .distributions import DistributionResult
from .errors import DataError
from .mc_oracle import CdfTable, EmpiricalDistribution, PathEnsemble
from .pde_engine import series_to_json


def _fmt(v) -> str:
    return repr(float(v))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _dump_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def result_csv(result: DistributionResult) -> str:
    """Long-format table: state coordinates, time, level, value."""
    n = result.states.shape[1]
    lines = [",".join(f"x{i + 1}" for i in range(n)) + ",t,level,value"]
    for si in range(result.states.shape[0]):
        coords = ",".join(_fmt(c) for c in result.states[si])
        for ti, t in enumerate(result.times):
            lines.append(f"{coords},{_fmt(t)},{_fmt(result.level)},"
                         f"{_fmt(result.values[si, ti])}")
    return "\n".join(lines) + "\n"


def result_json(result: DistributionResult) -> dict:
    return {
        "kind": result.kind,
        "level": result.level,
        "states": result.states.tolist(),
        "z": result.z.tolist(),
        "times": result.times.tolist(),
        "values": result.values.tolist(),
        "diagnostics": result.diagnostics,
        "provenance": result.provenance,
    }


def write_result(result: DistributionResult, out_dir: str, tag: str,
                 formats=("csv", "json"), snapshot_times=None) -> list:
    """Persist a distribution result; returns the written file paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    stem = os.path.join(out_dir, f"{result.kind}_{tag}")
    if "csv" in formats:
        path = f"{stem}.csv"
        _write_text(path, result_csv(result))
        written.append(path)
    if "json" in formats:
        path = f"{stem}.json"
        _dump_json(path, result_json(result))
        written.append(path)
        if snapshot_times and result.series is not None:
            fpath = f"{stem}_fields.json"
            _dump_json(fpath, series_to_json(result.series, snapshot_times))
            written.append(fpath)
    return written


def empirical_csv(emp: EmpiricalDistribution) -> str:
    axis = "t" if emp.kind in ("exit_cdf", "entry_cdf") else "level"
    band = emp.band
    lines = [f"{axis},value,band_low,band_high"]
    for p, v in zip(emp.grid, emp.values):
        lines.append(f"{_fmt(p)},{_fmt(v)},{_fmt(max(v - band, 0.0))},"
                     f"{_fmt(min(v + band, 1.0))}")
    return "\n".join(lines) + "\n"


def empirical_json(emp: EmpiricalDistribution) -> dict:
    return {
        "kind": emp.kind,
        "n_total": emp.n_total,
        "n_censored": emp.n_censored,
        "confidence": emp.confidence,
        "dkw_band": emp.band,
        "grid": emp.grid.tolist(),
        "values": emp.values.tolist(),
    }


def read_artifact(path: str):
    """Parse a JSON artifact; a missing or undecodable file raises DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"artifact not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DataError(f"artifact {path} is not valid JSON: {err}") from None


@contextmanager
def artifact_layout(path: str):
    """Turn a lookup that does not fit the artifact's layout into DataError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise DataError(f"artifact {path} has a malformed layout: {err}") from None


def load_table(path: str, state_index: int = 0) -> tuple[str, CdfTable]:
    """Load either artifact layout as (kind, table).

    An empirical artifact gives its whole curve, a solve result the curve
    of query state ``state_index``.
    """
    doc = read_artifact(path)
    if not isinstance(doc, dict) or ("grid" not in doc and "times" not in doc):
        raise DataError(f"artifact {path} has neither a result nor an empirical layout")
    with artifact_layout(path):
        if "grid" in doc:
            points, values = doc["grid"], doc["values"]
        else:
            points, values = doc["times"], doc["values"][state_index]
        return doc["kind"], CdfTable(np.asarray(points, dtype=float),
                                     np.asarray(values, dtype=float))


def write_empirical(estimates: dict, ens: PathEnsemble, out_dir: str, tag: str,
                    formats=("csv", "json"), event_log: bool = False) -> list:
    """Persist empirical distributions plus an ensemble summary."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, emp in sorted(estimates.items()):
        stem = os.path.join(out_dir, f"mc_{name}_{tag}")
        if "csv" in formats:
            path = f"{stem}.csv"
            _write_text(path, empirical_csv(emp))
            written.append(path)
        if "json" in formats:
            path = f"{stem}.json"
            _dump_json(path, empirical_json(emp))
            written.append(path)
    summary = {
        "level": ens.level,
        "x0": ens.x0.tolist(),
        "phi0": ens.phi0,
        "n_paths": ens.config.n_paths,
        "seed": ens.config.seed,
        "dt": ens.config.dt,
        "horizon": ens.config.horizon,
        "n_diverged": ens.n_diverged,
        "n_infeasible": ens.n_infeasible,
    }
    path = os.path.join(out_dir, f"mc_summary_{tag}.json")
    _dump_json(path, summary)
    written.append(path)
    if event_log:
        path = os.path.join(out_dir, f"mc_paths_{tag}.csv")
        lines = ["path_id,min_phi,max_phi,exit_time,entry_time,censored_exit,"
                 "censored_entry,excluded"]
        for i in range(ens.config.n_paths):
            exit_t = ens.exit_time[i]
            entry_t = ens.entry_time[i]
            lines.append(
                f"{i},{_fmt(ens.min_phi[i])},{_fmt(ens.max_phi[i])},"
                f"{'' if np.isnan(exit_t) else _fmt(exit_t)},"
                f"{'' if np.isnan(entry_t) else _fmt(entry_t)},"
                f"{int(np.isnan(exit_t))},{int(np.isnan(entry_t))},"
                f"{int(ens.excluded[i])}")
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    return written


def write_manifest(out_dir: str, tag: str, command: str, files: list,
                   config_doc: dict) -> str:
    """Manifest listing every emitted file with the config hash."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "command": command,
        "config_hash": tag,
        "config": config_doc,
        "files": [os.path.basename(f) for f in sorted(files)],
    }
    path = os.path.join(out_dir, f"manifest_{command}_{tag}.json")
    _dump_json(path, payload)
    return path
