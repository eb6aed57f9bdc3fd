"""Deterministic CSV/JSON artifact writers and loaders.

This module owns every artifact: it names each file, fixes its layout and
does every read and write of one; the solver and the CLI open no file.
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
from .pde_engine import FieldSeries, GridSpec


def _fmt(v) -> str:
    return repr(float(v))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _dump_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _result_paths(out_dir: str, kind: str, tag: str) -> tuple[str, str, str]:
    """A solve's result CSV, result JSON and fields JSON paths."""
    stem = os.path.join(out_dir, f"{kind}_{tag}")
    return f"{stem}.csv", f"{stem}.json", f"{stem}_fields.json"


def _curve_csv(states, times, values, level=None) -> str:
    """Long-format table: state coordinates, time, level (when given), value."""
    columns = ",t,value" if level is None else ",t,level,value"
    level_cell = "" if level is None else f"{_fmt(level)},"
    lines = [",".join(f"x{i + 1}" for i in range(len(states[0]))) + columns]
    for si, state in enumerate(states):
        coords = ",".join(_fmt(c) for c in state)
        for ti, t in enumerate(times):
            lines.append(f"{coords},{_fmt(t)},{level_cell}{_fmt(values[si][ti])}")
    return "\n".join(lines) + "\n"


def result_csv(result: DistributionResult) -> str:
    """Long-format table: state coordinates, time, level, value."""
    return _curve_csv(result.states, result.times, result.values, result.level)


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


def series_to_json(series: FieldSeries) -> dict:
    """Binary-free JSON layout: grid metadata plus the row-major final snapshot."""
    return {
        "grid": {
            "lo": list(series.grid.lo),
            "hi": list(series.grid.hi),
            "cells": list(series.grid.cells),
        },
        "dirichlet_value": series.dirichlet_value,
        "snapshots": [{"time": float(series.times[-1]),
                       "values": [float(v) for v in series.final_field.ravel()]}],
        "diagnostics": series.diagnostics.as_dict(),
    }


def export_snapshot_csv(grid: GridSpec, field: np.ndarray, path) -> None:
    """Write one snapshot as CSV rows of node coordinates and value."""
    lines = [",".join(f"x{i + 1}" for i in range(grid.ndim)) + ",value"]
    for row, v in zip(grid.nodes(), np.asarray(field, dtype=float).ravel()):
        lines.append(",".join(_fmt(c) for c in row) + f",{_fmt(v)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_result(result: DistributionResult, out_dir: str, tag: str) -> list:
    """Persist a distribution result and its final field; returns the written
    file paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path, json_path, fields_path = _result_paths(out_dir, result.kind, tag)
    _write_text(csv_path, result_csv(result))
    _dump_json(json_path, result_json(result))
    _dump_json(fields_path, series_to_json(result.series))
    return [csv_path, json_path, fields_path]


def write_report(out_dir: str, kind: str, tag: str) -> list:
    """Plot-ready tables from a solve's artifacts; returns the written paths.

    The curve CSV repeats the result without its level column; when the
    fields artifact exists, the heatmap CSV holds its snapshot per node.
    """
    _, result_path, fields_path = _result_paths(out_dir, kind, tag)
    if not os.path.exists(result_path):
        raise DataError(f"missing solve artifact {result_path}; run solve first")
    doc = read_artifact(result_path)
    with artifact_layout(result_path):
        curve = _curve_csv(doc["states"], doc["times"], doc["values"])
    curve_path = os.path.join(out_dir, f"report_curve_{kind}_{tag}.csv")
    _write_text(curve_path, curve)
    written = [curve_path]
    if os.path.exists(fields_path):
        fields = read_artifact(fields_path)
        with artifact_layout(fields_path):
            box = fields["grid"]
            grid = GridSpec(box["lo"], box["hi"], box["cells"])
            values = np.asarray(fields["snapshots"][-1]["values"],
                                dtype=float).reshape(grid.shape)
        heat_path = os.path.join(out_dir, f"report_heatmap_{kind}_{tag}.csv")
        export_snapshot_csv(grid, values, heat_path)
        written.append(heat_path)
    return written


def write_validation(out_dir: str, tag: str, all_pass: bool, checks: list) -> str:
    """The validation report of one configuration; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"validation_{tag}.json")
    _dump_json(path, {"config_hash": tag, "all_pass": all_pass, "checks": checks})
    return path


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
                    event_log: bool = False) -> list:
    """Persist empirical distributions plus an ensemble summary."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, emp in sorted(estimates.items()):
        stem = os.path.join(out_dir, f"mc_{name}_{tag}")
        _write_text(f"{stem}.csv", empirical_csv(emp))
        _dump_json(f"{stem}.json", empirical_json(emp))
        written += [f"{stem}.csv", f"{stem}.json"]
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
