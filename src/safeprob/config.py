"""Experiment configuration: one schema of keys, one lookup, model resolution.

A configuration is a JSON document naming the paper's objects: the
controlled SDE (``system``), the ``barrier``, the safe-control ``policy``,
the distribution ``query``, the PDE ``numerics`` and the Monte Carlo check
(``mc``).  ``SCHEMA`` is the one table of keys, each with its default (or
``REQUIRED``), its type and, where a key's values are narrower than its
type, a rule ``(test, message)`` that a present value must pass.
``validate_config`` rejects unknown, missing, non-finite and out-of-range
values by key, and adds only the rules that join two or more keys.
``ExperimentConfig.get("a.b.c")`` returns a value or its default, never
writing defaults into the hashed document.  A built-in ``example`` supplies
the system, barrier, policy and numerics; explicit sections replace its
system, barrier and policy, and a ``numerics`` section overrides only the
keys it names.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import KINDS, NumericsConfig
from .errors import ConfigError
from .expressions import compile_matrix, compile_scalar, compile_vector
from .library import example_names, make_example
from .system_model import POLICY_KINDS, BarrierProblem, ControlSystem, Policy, linear_rate

_NUMBER = (int, float)
# The default of a key that must be present whenever its section is.
REQUIRED = object()
# Caps on a query's step count, horizon / dt, for the PDE march and for the
# Monte Carlo paths, and on its number of tabulation times: in round numbers
# a thousand times the shipped configs' 1,000 steps and 101 times.  At the
# step cap the smallest Monte Carlo block, 64 paths, holds 512 MB of noise
# per noise axis; at the times cap a curve is about 2 MB of JSON.
MAX_STEPS = 1_000_000
MAX_TIMES = 100_000

# The one table of config keys: each key maps to (default, schema) or
# (default, schema, (test, message)), where the default is REQUIRED or the
# value ``ExperimentConfig.get`` returns when the key is absent (None: absent
# means unset).  A present value that passes the schema but fails ``test``
# raises ``message.format(value)`` at its key.  Schema node forms:
#   dict  -> nested object of such keys
#   type / tuple of types -> scalar leaf (every number finite)
#   [schema] -> homogeneous list
SCHEMA: dict = {
    "example": (None, str, (lambda v: v in example_names(),
                            "unknown example {!r}; available: " + ", ".join(example_names()))),
    "system": (None, {
        "dim_state": (REQUIRED, int, (lambda v: v >= 1, "dim_state must be >= 1")),
        "dim_input": (REQUIRED, int, (lambda v: v >= 1, "dim_input must be >= 1")),
        "dim_noise": (REQUIRED, int, (lambda v: v >= 1, "dim_noise must be >= 1")),
        "f": (REQUIRED, [str]),
        "g": (REQUIRED, [[str]]),
        "sigma": (REQUIRED, [[str]]),
    }),
    "barrier": (None, {
        "phi": (REQUIRED, str),
    }),
    "policy": (None, {
        "kind": (REQUIRED, str, (lambda v: v in POLICY_KINDS, "unknown policy kind {!r}")),
        "nominal": (None, [str]),
        "alpha_gain": (1, _NUMBER, (lambda v: v > 0, "alpha_gain must be positive")),
        "c": (None, str),
    }),
    "query": (None, {
        "kind": (REQUIRED, str, (lambda v: v in KINDS, "unknown distribution kind {!r}")),
        "states": (REQUIRED, [[_NUMBER]]),
        "level": (0, _NUMBER),
        "horizon": (REQUIRED, _NUMBER, (lambda v: v >= 0, "horizon must be >= 0")),
        "times": (None, {
            "start": (REQUIRED, _NUMBER),
            "stop": (REQUIRED, _NUMBER),
            "num": (REQUIRED, int, (lambda v: 1 <= v <= MAX_TIMES,
                                    f"num must lie in [1, {MAX_TIMES}]")),
        }),
    }),
    "numerics": (None, {
        "box_lo": (REQUIRED, [_NUMBER]),
        "box_hi": (REQUIRED, [_NUMBER]),
        "cells": (REQUIRED, [int]),
        "dt": (REQUIRED, _NUMBER, (lambda v: v > 0, "dt must be positive")),
    }),
    "mc": (None, {
        "n_paths": (REQUIRED, int, (lambda v: v >= 1, "n_paths must be >= 1")),
        "dt": (REQUIRED, _NUMBER, (lambda v: v > 0, "dt must be positive")),
        "seed": (REQUIRED, int, (lambda v: 0 <= v < 2**64,
                                 "seed must fit an unsigned 64-bit integer")),
    }),
    "output": (None, {
        "dir": ("out", str),
    }),
    "validation": (None, {
        "analytic": (None, {
            "x0": (REQUIRED, _NUMBER),
            "drift": (REQUIRED, _NUMBER),
            "vol": (REQUIRED, _NUMBER, (lambda v: v > 0, "vol must be positive")),
        }),
        "pde_artifact": (None, str),
        "mc_artifact": (None, str),
    }),
}

# The numerics keys a named example supplies where its numerics section
# omits them; ExampleBundle holds each under the same name.
_EXAMPLE_NUMERICS = frozenset(f"numerics.{key}" for key in ("box_lo", "box_hi", "cells", "dt"))


def _validate_node(value, schema, path: str, supplied=frozenset()) -> None:
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError("expected an object", path or "<root>")
        for key in value:
            if key not in schema:
                raise ConfigError("unknown key", f"{path}.{key}" if path else key)
        for key, (default, sub, *rule) in schema.items():
            here = f"{path}.{key}" if path else key
            if key not in value:
                if default is REQUIRED and here not in supplied:
                    raise ConfigError("missing required key", here)
                continue
            _validate_node(value[key], sub, here, supplied)
            for test, message in rule:
                if not test(value[key]):
                    raise ConfigError(message.format(value[key]), here)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError("expected a list", path)
        for i, item in enumerate(value):
            _validate_node(item, schema[0], f"{path}[{i}]", supplied)
    else:
        # bool is an int subclass; keep the two apart.
        if schema is int and isinstance(value, bool):
            raise ConfigError("expected an integer", path)
        if schema == _NUMBER and isinstance(value, bool):
            raise ConfigError("expected a number", path)
        if not isinstance(value, schema):
            want = getattr(schema, "__name__", "number")
            raise ConfigError(f"expected {want}", path)
        # json reads NaN and Infinity, and NaN fails every range comparison;
        # an integer past the float range would overflow float() later.
        if schema == _NUMBER and not abs(value) <= sys.float_info.max:
            raise ConfigError("expected a finite number", path)


def _lookup(doc: dict, dotted: str):
    """The value at the dotted key of a validated document, else its named
    example's numerics value or its SCHEMA default; a key without one raises
    at the outermost absent key."""
    keys = dotted.split(".")
    node, schema = doc, SCHEMA
    for i, key in enumerate(keys):
        default, schema = schema[key][:2]
        if key not in node:
            if dotted in _EXAMPLE_NUMERICS and "example" in doc:
                return getattr(make_example(doc["example"]), keys[-1])
            for inner in keys[i + 1:]:
                default, schema = schema[inner][:2]
            if default is REQUIRED:
                raise ConfigError("missing required key", ".".join(keys[:i + 1]))
            return default
        node = node[key]
    return node


def validate_config(doc: dict) -> dict:
    """Validate a raw configuration document; returns it unchanged."""
    named = isinstance(doc, dict) and "example" in doc
    _validate_node(doc, SCHEMA, "", _EXAMPLE_NUMERICS if named else frozenset())
    if not named:
        for key in ("system", "barrier"):
            if key not in doc:
                raise ConfigError("missing required key (no example named)", key)
    if "query" in doc:
        horizon = doc["query"]["horizon"]
        times = _lookup(doc, "query.times")
        if times is not None:
            for key in ("start", "stop"):
                if not 0 <= times[key] <= horizon:
                    raise ConfigError(f"{key} must lie in [0, horizon {horizon}]",
                                      f"query.times.{key}")
            if times["start"] > times["stop"]:
                raise ConfigError("start must not exceed stop", "query.times.start")
        for key, present in (("mc.dt", "mc" in doc), ("numerics.dt", "numerics" in doc or named)):
            dt = _lookup(doc, key) if present else None
            if dt is not None and horizon / dt > MAX_STEPS:
                raise ConfigError(f"dt {dt} makes {horizon / dt:.3g} steps over the horizon "
                                  f"{horizon}, above cap {MAX_STEPS}", key)
    if "policy" in doc and doc["policy"]["kind"] == "gradient" and "c" not in doc["policy"]:
        raise ConfigError("gradient policy requires key", "policy.c")
    if "numerics" in doc or named:
        n = (doc["system"]["dim_state"] if "system" in doc
             else make_example(doc["example"]).system.n)
        num = {key: _lookup(doc, f"numerics.{key}") for key in ("box_lo", "box_hi", "cells")}
        for key, axes in num.items():
            if len(axes) != n:
                raise ConfigError("box_lo, box_hi and cells must have equal lengths, "
                                  f"one per state axis ({n})", f"numerics.{key}")
        for a, (lo, hi) in enumerate(zip(num["box_lo"], num["box_hi"])):
            if not lo < hi:
                raise ConfigError(f"axis {a}: box_hi {hi} must exceed box_lo {lo}",
                                  "numerics.box_hi")
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


def _policy_from_doc(section: dict, n: int, m: int) -> Policy:
    kind = section["kind"]
    if "nominal" in section:
        if len(section["nominal"]) != m:
            raise ConfigError(f"nominal must list {m} expressions", "policy.nominal")
        nominal = compile_vector(section["nominal"], n)
    else:
        def nominal(X):
            return np.zeros((len(X), m))
    alpha = linear_rate(float(_lookup({"policy": section}, "policy.alpha_gain")))
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

    def get(self, dotted: str):
        """The value at a dotted key such as ``"mc.seed"``, or its SCHEMA
        default; ConfigError names the outermost absent key of a required one."""
        return _lookup(self.doc, dotted)

    def models(self) -> tuple[ControlSystem, BarrierProblem, Policy]:
        # validate_config requires system and barrier when no example is named.
        bundle = make_example(self.doc["example"]) if "example" in self.doc else None
        system = (_system_from_doc(self.doc["system"]) if "system" in self.doc
                  else bundle.system)
        if "barrier" in self.doc:
            barrier = BarrierProblem(phi=compile_scalar(self.get("barrier.phi"), system.n))
        else:
            barrier = bundle.barrier
        if "policy" in self.doc:
            policy = _policy_from_doc(self.doc["policy"], system.n, system.m)
        elif bundle is not None:
            policy = bundle.policy
        else:
            policy = _policy_from_doc({"kind": "none"}, system.n, system.m)
        return system, barrier, policy

    def numerics(self) -> NumericsConfig:
        return NumericsConfig(box_lo=tuple(self.get("numerics.box_lo")),
                              box_hi=tuple(self.get("numerics.box_hi")),
                              cells=tuple(self.get("numerics.cells")),
                              dt=float(self.get("numerics.dt")))

    def query_times(self) -> np.ndarray | None:
        section = self.get("query.times")
        if section is None:
            return None
        return np.linspace(section["start"], section["stop"], section["num"])
