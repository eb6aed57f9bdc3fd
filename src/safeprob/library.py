"""Model documents: the built-in examples, and the models a document states.

A model document has a configuration's ``system``, ``barrier`` and
``policy`` sections, whose expressions ``safeprob.expressions`` compiles,
the barrier's exact derivatives included.  ``EXAMPLES`` holds each built-in
example as such a document, plus its recommended ``numerics``, initial state
``x0`` and ``horizon``; it is the basis of the shipped reference
configurations.  ``build_models`` compiles a configuration and
``make_example`` an example, through the same sections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expressions import compile_barrier, compile_expressions
from .system_model import BarrierProblem, ControlSystem, Policy, linear_rate

EXAMPLES = {
    # Unit-drift Brownian motion with identity barrier: the closed-form
    # first-passage reference used throughout the validation suite.
    "drifted_bm_1d": {
        "system": {"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                   "f": ["1"], "g": [["0"]], "sigma": [["1"]]},
        "barrier": {"phi": "x1"}, "policy": {"kind": "none"},
        "numerics": {"box_lo": [0.0], "box_hi": [8.0], "cells": [800], "dt": 1e-3},
        "x0": [1.0], "horizon": 1.0},
    # Planar point mass: position integrates velocity, force and noise act on
    # velocity only.  A zero-CBF filter keeps a zero nominal in the unit disk
    # in (p, v).  The odd velocity cell count keeps v = 0, where the filter's
    # actuated direction vanishes, off the node lattice.
    "double_integrator": {
        "system": {"dim_state": 2, "dim_input": 1, "dim_noise": 1,
                   "f": ["x2", "0"], "g": [["0"], ["1"]], "sigma": [["0"], ["1"]]},
        "barrier": {"phi": "1 - x1^2 - x2^2"}, "policy": {"kind": "zero_cbf", "alpha_gain": 10},
        "numerics": {"box_lo": [-1.05, -1.05], "box_hi": [1.05, 1.05], "cells": [168, 169],
                     "dt": 1e-3},
        "x0": [0.0, 0.0], "horizon": 1.0},
    # Unicycle with commanded speed and turn rate under a gradient policy
    # that cuts speed when the heading points out of the disk.
    "unicycle_disk": {
        "system": {"dim_state": 3, "dim_input": 2, "dim_noise": 3, "f": ["0", "0", "0"],
                   "g": [["cos(x3)", "0"], ["sin(x3)", "0"], ["0", "1"]],
                   "sigma": [["0.1", "0", "0"], ["0", "0.1", "0"], ["0", "0", "0.5"]]},
        "barrier": {"phi": "1 - x1^2 - x2^2"},
        "policy": {"kind": "gradient", "nominal": ["0.6", "0"], "c": "1"},
        "numerics": {"box_lo": [-1.1, -1.1, -np.pi], "box_hi": [1.1, 1.1, np.pi],
                     "cells": [22, 22, 12], "dt": 2e-3},
        "x0": [0.0, 0.0, 0.0], "horizon": 0.5},
}


@dataclass(frozen=True)
class ExampleBundle:
    system: ControlSystem
    barrier: BarrierProblem
    policy: Policy
    box_lo: tuple
    box_hi: tuple
    cells: tuple
    dt: float
    x0: tuple
    horizon: float


def _system(section: dict) -> ControlSystem:
    n, m, k = section["dim_state"], section["dim_input"], section["dim_noise"]
    return ControlSystem(n=n, m=m, k=k,
                         f=compile_expressions(section["f"], n, (n,), "system.f"),
                         g=compile_expressions(section["g"], n, (n, m), "system.g"),
                         sigma=compile_expressions(section["sigma"], n, (n, k), "system.sigma"))


def _policy(section: dict, n: int, m: int) -> Policy:
    # A zero nominal, and Policy's own rate s -> s, are the keys' defaults.
    nominal = compile_expressions(section.get("nominal", ["0"] * m), n, (m,), "policy.nominal")
    alpha = linear_rate(float(section["alpha_gain"])) if "alpha_gain" in section else None
    c = compile_expressions(section["c"], n, (), "policy.c") if "c" in section else None
    return Policy(nominal=nominal, kind=section["kind"], alpha=alpha, c=c)


def build_models(doc: dict) -> tuple[ControlSystem, BarrierProblem, Policy]:
    """The system, barrier and policy of a validated document.  A section the
    document lacks is its named example's, and an error in it says so; with
    neither, the policy passes a zero nominal through."""
    named = doc.get("example")
    sections = {"policy": {"kind": "none"}, **EXAMPLES.get(named, {}), **doc}

    def build(name, make):
        try:
            return make(sections[name])
        except ConfigError as err:
            if name in doc or named is None:
                raise
            raise ConfigError(f"{err.reason}; the {name} section comes from example "
                              f"{named!r}", err.pointer) from None

    system = build("system", _system)
    barrier = build("barrier", lambda s: BarrierProblem(
        *compile_barrier(s["phi"], system.n, "barrier.phi")))
    policy = build("policy", lambda s: _policy(s, system.n, system.m))
    return system, barrier, policy


def example_names() -> tuple[str, ...]:
    return tuple(sorted(EXAMPLES))


def make_example(name: str) -> ExampleBundle:
    """Compile a built-in example by identifier."""
    try:
        doc = EXAMPLES[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; available: {', '.join(example_names())}") from None
    num = doc["numerics"]
    return ExampleBundle(*build_models(doc), box_lo=tuple(num["box_lo"]),
                         box_hi=tuple(num["box_hi"]), cells=tuple(num["cells"]), dt=num["dt"],
                         x0=tuple(doc["x0"]), horizon=doc["horizon"])
