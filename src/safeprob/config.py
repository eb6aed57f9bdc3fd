"""Experiment configuration: schema validation and model resolution.

Configurations are JSON documents.  ``validate_config`` checks them
against the shipped schema (unknown keys rejected, missing required keys
reported with a pointer), and ``ExperimentConfig`` resolves the validated
document into model objects, numerics, and query/MC settings.  A built-in
example may be named via ``example``; explicit ``system``/``barrier``/
``policy`` sections replace the bundle's parts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .distributions import KINDS, NumericsConfig
from .errors import ConfigError
from .expressions import compile_matrix, compile_scalar, compile_vector
from .library import ExampleBundle, example_names, make_example
from .mc_oracle import PathConfig
from .system_model import POLICY_KINDS, BarrierProblem, ControlSystem, Policy, linear_rate

_NUMBER = (int, float)

# Schema node forms:
#   dict  -> nested object: key -> (required, schema)
#   type / tuple of types -> scalar leaf
#   [schema] -> homogeneous list
SCHEMA: dict = {
    "example": (False, str),
    "system": (False, {
        "dim_state": (True, int),
        "dim_input": (True, int),
        "dim_noise": (True, int),
        "f": (True, [str]),
        "g": (True, [[str]]),
        "sigma": (True, [[str]]),
    }),
    "barrier": (False, {
        "phi": (True, str),
        "level": (False, _NUMBER),
    }),
    "policy": (False, {
        "kind": (True, str),
        "nominal": (False, [str]),
        "alpha_gain": (False, _NUMBER),
        "c": (False, str),
    }),
    "query": (False, {
        "kind": (True, str),
        "states": (True, [[_NUMBER]]),
        "level": (False, _NUMBER),
        "horizon": (True, _NUMBER),
        "times": (False, {
            "start": (True, _NUMBER),
            "stop": (True, _NUMBER),
            "num": (True, int),
        }),
    }),
    "numerics": (False, {
        "box_lo": (True, [_NUMBER]),
        "box_hi": (True, [_NUMBER]),
        "cells": (True, [int]),
        "dt": (True, _NUMBER),
        "boundary_probe": (False, bool),
    }),
    "mc": (False, {
        "n_paths": (True, int),
        "dt": (True, _NUMBER),
        "seed": (True, int),
        "confidence": (False, _NUMBER),
        "max_divergence_fraction": (False, _NUMBER),
        "event_log": (False, bool),
    }),
    "output": (False, {
        "dir": (False, str),
    }),
    "validation": (False, {
        "tolerances": (False, {
            "mc_ks": (False, _NUMBER),
            "analytic_ks": (False, _NUMBER),
            "complementarity": (False, _NUMBER),
            "monotonicity": (False, _NUMBER),
            "boundary": (False, _NUMBER),
        }),
        "analytic": (False, {
            "x0": (True, _NUMBER),
            "drift": (True, _NUMBER),
            "vol": (True, _NUMBER),
        }),
        "pde_artifact": (False, str),
        "mc_artifact": (False, str),
    }),
}


def _validate_node(value, schema, path: str) -> None:
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError("expected an object", path or "<root>")
        for key in value:
            if key not in schema:
                raise ConfigError("unknown key", f"{path}.{key}" if path else key)
        for key, (required, sub) in schema.items():
            here = f"{path}.{key}" if path else key
            if key not in value:
                if required:
                    raise ConfigError("missing required key", here)
                continue
            _validate_node(value[key], sub, here)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError("expected a list", path)
        for i, item in enumerate(value):
            _validate_node(item, schema[0], f"{path}[{i}]")
    else:
        # bool is an int subclass; keep the two apart.
        if schema is int and isinstance(value, bool):
            raise ConfigError("expected an integer", path)
        if schema == _NUMBER and isinstance(value, bool):
            raise ConfigError("expected a number", path)
        if not isinstance(value, schema):
            want = getattr(schema, "__name__", "number")
            raise ConfigError(f"expected {want}", path)


def validate_config(doc: dict) -> dict:
    """Validate a raw configuration document; returns it unchanged."""
    _validate_node(doc, SCHEMA, "")
    if "example" in doc and doc["example"] not in example_names():
        raise ConfigError(f"unknown example {doc['example']!r}; "
                          f"available: {', '.join(example_names())}", "example")
    if "example" not in doc:
        for key in ("system", "barrier"):
            if key not in doc:
                raise ConfigError("missing required key (no example named)", key)
    if "query" in doc:
        if doc["query"]["kind"] not in KINDS:
            raise ConfigError(f"unknown distribution kind {doc['query']['kind']!r}", "query.kind")
        horizon = doc["query"]["horizon"]
        if horizon < 0:
            raise ConfigError("horizon must be >= 0", "query.horizon")
        times = doc["query"].get("times")
        if times is not None:
            if times["num"] < 1:
                raise ConfigError("num must be >= 1", "query.times.num")
            for key in ("start", "stop"):
                if not 0 <= times[key] <= horizon:
                    raise ConfigError(f"{key} must lie in [0, horizon {horizon}]",
                                      f"query.times.{key}")
            if times["start"] > times["stop"]:
                raise ConfigError("start must not exceed stop", "query.times.start")
    if "policy" in doc:
        if doc["policy"]["kind"] not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {doc['policy']['kind']!r}", "policy.kind")
        if doc["policy"]["kind"] == "gradient" and "c" not in doc["policy"]:
            raise ConfigError("gradient policy requires key", "policy.c")
    if "mc" in doc:
        if doc["mc"]["n_paths"] < 1:
            raise ConfigError("n_paths must be >= 1", "mc.n_paths")
        if doc["mc"]["dt"] <= 0:
            raise ConfigError("dt must be positive", "mc.dt")
        if not 0 <= doc["mc"]["seed"] < 2**64:
            raise ConfigError("seed must fit an unsigned 64-bit integer", "mc.seed")
    return doc


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply dotted-path key=value overrides; values parse as JSON when possible."""
    doc = json.loads(json.dumps(doc))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-object at {part!r}", dotted)
        node[parts[-1]] = value
    return doc


def config_hash(doc: dict) -> str:
    """Hash of the result-determining configuration (output placement excluded)."""
    doc = {k: v for k, v in doc.items() if k != "output"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _system_from_doc(section: dict) -> ControlSystem:
    n = section["dim_state"]
    m = section["dim_input"]
    k = section["dim_noise"]
    if len(section["f"]) != n:
        raise ConfigError(f"f must list {n} expressions", "system.f")
    if len(section["g"]) != n or any(len(r) != m for r in section["g"]):
        raise ConfigError(f"g must be {n} rows of {m} expressions", "system.g")
    if len(section["sigma"]) != n or any(len(r) != k for r in section["sigma"]):
        raise ConfigError(f"sigma must be {n} rows of {k} expressions", "system.sigma")
    return ControlSystem(n=n, m=m, k=k,
                         f=compile_vector(section["f"], n),
                         g=compile_matrix(section["g"], n),
                         sigma=compile_matrix(section["sigma"], n))


def _barrier_from_doc(section: dict, n: int) -> BarrierProblem:
    phi = compile_scalar(section["phi"], n)
    return BarrierProblem(phi=phi, level=float(section.get("level", 0.0)))


def _policy_from_doc(section: dict, n: int, m: int) -> Policy:
    kind = section["kind"]
    if "nominal" in section:
        if len(section["nominal"]) != m:
            raise ConfigError(f"nominal must list {m} expressions", "policy.nominal")
        nominal = compile_vector(section["nominal"], n)
    else:
        def nominal(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            return np.zeros((X.shape[0], m))
    alpha = linear_rate(float(section.get("alpha_gain", 1.0)))
    c = compile_scalar(section["c"], n) if "c" in section else None
    return Policy(nominal=nominal, kind=kind, alpha=alpha, c=c)


@dataclass
class ExperimentConfig:
    """A validated configuration document plus resolution helpers."""

    doc: dict
    hash: str

    @classmethod
    def from_doc(cls, doc: dict, overrides=None) -> "ExperimentConfig":
        doc = apply_overrides(doc, overrides)
        validate_config(doc)
        return cls(doc=doc, hash=config_hash(doc))

    @classmethod
    def from_file(cls, path, overrides=None) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from None
        return cls.from_doc(doc, overrides)

    def bundle(self) -> ExampleBundle | None:
        name = self.doc.get("example")
        return make_example(name) if name else None

    def models(self) -> tuple[ControlSystem, BarrierProblem, Policy]:
        bundle = self.bundle()
        if "system" in self.doc:
            system = _system_from_doc(self.doc["system"])
        elif bundle is not None:
            system = bundle.system
        else:
            raise ConfigError("missing required key", "system")
        if "barrier" in self.doc:
            barrier = _barrier_from_doc(self.doc["barrier"], system.n)
        elif bundle is not None:
            barrier = bundle.barrier
        else:
            raise ConfigError("missing required key", "barrier")
        if "policy" in self.doc:
            policy = _policy_from_doc(self.doc["policy"], system.n, system.m)
        elif bundle is not None:
            policy = bundle.policy
        else:
            policy = Policy(nominal=lambda X: np.zeros(
                (np.atleast_2d(X).shape[0], system.m)), kind="none")
        return system, barrier, policy

    def numerics(self) -> NumericsConfig:
        bundle = self.bundle()
        section = self.doc.get("numerics")
        if section is None:
            if bundle is None:
                raise ConfigError("missing required key", "numerics")
            return NumericsConfig(box_lo=bundle.box_lo, box_hi=bundle.box_hi,
                                  cells=bundle.cells, dt=bundle.dt)
        return NumericsConfig(box_lo=tuple(section["box_lo"]),
                              box_hi=tuple(section["box_hi"]),
                              cells=tuple(section["cells"]),
                              dt=float(section["dt"]),
                              boundary_probe=section.get("boundary_probe", True))

    def query_kind(self) -> str:
        if "query" not in self.doc:
            raise ConfigError("missing required key", "query")
        return self.doc["query"]["kind"]

    def query_states(self) -> np.ndarray:
        return np.asarray(self.doc["query"]["states"], dtype=float)

    def query_times(self) -> np.ndarray | None:
        section = self.doc["query"].get("times")
        if section is None:
            return None
        return np.linspace(section["start"], section["stop"], section["num"])

    def query_level(self) -> float | None:
        level = self.doc["query"].get("level")
        return None if level is None else float(level)

    def query_horizon(self) -> float:
        return float(self.doc["query"]["horizon"])

    def path_config(self) -> PathConfig:
        if "mc" not in self.doc:
            raise ConfigError("missing required key", "mc")
        section = self.doc["mc"]
        horizon = self.query_horizon() if "query" in self.doc else None
        if horizon is None:
            raise ConfigError("mc runs need a query section for the horizon", "query")
        return PathConfig(dt=float(section["dt"]), horizon=horizon,
                          n_paths=int(section["n_paths"]), seed=int(section["seed"]))

    def mc_confidence(self) -> float:
        return float(self.doc.get("mc", {}).get("confidence", 0.95))

    def mc_max_divergence(self) -> float:
        return float(self.doc.get("mc", {}).get("max_divergence_fraction", 0.01))

    def output_dir(self) -> str:
        return self.doc.get("output", {}).get("dir", "out")

    def tolerances(self) -> dict:
        tol = {"mc_ks": 0.02, "analytic_ks": 5e-3, "complementarity": 1e-6,
               "monotonicity": 1e-8, "boundary": 1e-3}
        tol.update(self.doc.get("validation", {}).get("tolerances", {}))
        return tol
