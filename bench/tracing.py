"""In-memory spans around the public callables of each ``safeprob`` module.

The tracer wraps callables from the outside, so the package itself is not
edited: a module function is replaced in every ``safeprob`` module (and
dispatch dict) that holds it, a method is replaced on its class.  Each call
records one span: name, start, end, parent span and round.  Calls into
``scipy.sparse.linalg`` are counted, not timed, so their time stays in the
``pde_engine`` layer that makes them.

A layer is the module a span's callable lives in.  A span's self time is its
duration minus that of its direct children; calls are nested on one thread,
so the layer self times of one round sum to at most the round's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from time import perf_counter

import numpy as np

LAYERS = ("config", "cli", "artifacts", "distributions", "system_model", "pde_engine",
          "mc_oracle")


def _nodes_of_stepper(args, kwargs, out):
    return int(args[0].A.shape[0])


def _batch_size(args, kwargs, out):
    X = args[3] if len(args) > 3 else kwargs["X"]
    return int(np.atleast_2d(X).shape[0])


def _written_bytes(args, kwargs, out):
    paths = out if isinstance(out, list) else [out]
    return sum(os.path.getsize(p) for p in paths)


def _iterations(args, kwargs, out):
    return int(out.diagnostics.total_iterations)


def _ensemble(args, kwargs, out):
    cfg = out.config
    n_steps = max(1, int(round(cfg.horizon / cfg.dt)))
    return (cfg.n_paths * n_steps, int(np.count_nonzero(out.excluded)))


# (module, qualified name, info recorded from (args, kwargs, result)).  These are
# the public callables the workloads reach, plus ``_path_noise``, the noise
# generator of the MC oracle.
TARGETS = (
    ("safeprob.config", "ExperimentConfig.from_file", None),
    ("safeprob.config", "ExperimentConfig.models", None),
    ("safeprob.cli", "main", None),
    ("safeprob.cli", "cmd_solve", None),
    ("safeprob.cli", "cmd_mc", None),
    ("safeprob.cli", "cmd_validate", None),
    ("safeprob.cli", "cmd_report", None),
    ("safeprob.artifacts", "write_result", _written_bytes),
    ("safeprob.artifacts", "write_empirical", _written_bytes),
    ("safeprob.artifacts", "write_manifest", _written_bytes),
    ("safeprob.distributions", "solve_distribution", None),
    ("safeprob.distributions", "event_time_cdf", None),
    ("safeprob.distributions", "monotonicity_violation", None),
    ("safeprob.system_model", "closed_loop_control_batch", _batch_size),
    ("safeprob.system_model", "lie_g", None),
    ("safeprob.system_model", "d_phi_batch", None),
    ("safeprob.system_model", "ControlSystem.f_at", None),
    ("safeprob.system_model", "ControlSystem.g_at", None),
    ("safeprob.system_model", "ControlSystem.sigma_at", None),
    ("safeprob.system_model", "BarrierProblem.phi_at", None),
    ("safeprob.system_model", "BarrierProblem.grad_at", None),
    ("safeprob.system_model", "BarrierProblem.hess_at", None),
    ("safeprob.pde_engine", "build_mask", None),
    ("safeprob.pde_engine", "IbvpSpec.__post_init__", None),
    ("safeprob.pde_engine", "ThetaStepper.__init__", _nodes_of_stepper),
    ("safeprob.pde_engine", "ThetaStepper.step", _nodes_of_stepper),
    ("safeprob.pde_engine", "solve_ibvp", _iterations),
    ("safeprob.pde_engine", "FieldSeries.sample", None),
    ("safeprob.mc_oracle", "simulate_paths", _ensemble),
    ("safeprob.mc_oracle", "_path_noise", None),
    ("safeprob.mc_oracle", "empirical_cdf_exit", None),
    ("safeprob.mc_oracle", "empirical_cdf_entry", None),
    ("safeprob.mc_oracle", "empirical_ccdf_min", None),
    ("safeprob.mc_oracle", "empirical_cdf_max", None),
    ("safeprob.mc_oracle", "ks_distance", None),
    ("safeprob.mc_oracle", "analytic_first_passage", None),
)

COEFF_EVALUATORS = tuple(f"system_model.{q}" for _, q, _ in TARGETS
                         if q.startswith(("ControlSystem.", "BarrierProblem.")))
EMPIRICAL = tuple(f"mc_oracle.{q}" for _, q, _ in TARGETS if q.startswith("empirical_"))
ARTIFACT_WRITERS = ("artifacts.write_result", "artifacts.write_empirical",
                    "artifacts.write_manifest")


class _CountingLU:
    """Forwards to a SuperLU factorization and counts its triangular solves."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        self._tracer.count("factor_solves")
        return self._lu.solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Installs span-recording wrappers and derives per-round layer metrics."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, round, info]
        self.counters = {}       # (round, key) -> value
        self.round = 0
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------
    def count(self, key: str, value: float = 1.0) -> None:
        k = (self.round, key)
        self.counters[k] = self.counters.get(k, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        k = (self.round, key)
        self.counters[k] = max(self.counters.get(k, 0.0), value)

    def _wrap(self, name: str, fn, info):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = [name, t0, t1, parent, tracer.round, None]
            if info is not None:
                spans[sid][5] = info(args, kwargs, out)
            return out

        return wrapper

    def _replace_everywhere(self, orig, wrapped) -> None:
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("safeprob"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append(functools.partial(setattr, mod, key, orig))
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            val[dkey] = wrapped
                            self._undo.append(functools.partial(val.__setitem__, dkey, orig))

    def install(self) -> "Tracer":
        for modname, qualname, info in TARGETS:
            mod = importlib.import_module(modname)
            name = f"{modname.split('.')[-1]}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, info))
                else:
                    wrapped = self._wrap(name, raw, info)
                setattr(cls, attr, wrapped)
                self._undo.append(functools.partial(setattr, cls, attr, raw))
            else:
                orig = getattr(mod, qualname)
                self._replace_everywhere(orig, self._wrap(name, orig, info))
        self._install_linalg_counters()
        return self

    def _install_linalg_counters(self) -> None:
        import scipy.sparse.linalg as spla

        def counted(attr, key, after=None):
            orig = getattr(spla, attr)

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                self.count(key)
                out = orig(*args, **kwargs)
                return after(out) if after is not None else out

            setattr(spla, attr, wrapper)
            self._undo.append(functools.partial(setattr, spla, attr, orig))

        def factor(lu):
            n = lu.shape[0]
            # float64 values and int32 indices of L and U, plus two index pointers
            self.peak("factor_bytes", lu.nnz * 12 + 2 * (n + 1) * 4)
            return _CountingLU(lu, self)

        counted("splu", "factorizations", factor)
        counted("spilu", "factorizations", factor)
        counted("bicgstab", "krylov_calls")
        counted("spsolve", "direct_fallbacks")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- derived metrics -------------------------------------------------
    def round_metrics(self, rnd: int, wall_s: float) -> dict:
        """Per-layer metrics of one traced round."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rnd]
        child_time = {}
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        layer_self = dict.fromkeys(LAYERS, 0.0)
        total = {}
        calls = {}
        info = {}
        nested_solve = 0.0
        for i, s in spans:
            name, dur = s[0], s[2] - s[1]
            layer_self[name.split(".")[0]] += dur - child_time.get(i, 0.0)
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if s[5] is not None:
                info.setdefault(name, []).append(s[5])
            if name == "pde_engine.solve_ibvp" and s[3] >= 0 \
                    and self.spans[s[3]][0] == "pde_engine.solve_ibvp":
                nested_solve += dur

        def tot(*names):
            return sum(total.get(n, 0.0) for n in names)

        def counter(key):
            return self.counters.get((rnd, key), 0.0)

        def median(name):
            durs = [s[2] - s[1] for _, s in spans if s[0] == name]
            return statistics.median(durs) if durs else 0.0

        march = tot("pde_engine.ThetaStepper.step")
        ens = info.get("mc_oracle.simulate_paths", [])
        path_steps = sum(e[0] for e in ens)
        simulate = tot("mc_oracle.simulate_paths")
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update({
            "config.load_s": tot("config.ExperimentConfig.from_file",
                                 "config.ExperimentConfig.models"),
            "cli.solve_s": tot("cli.cmd_solve"),
            "cli.mc_s": tot("cli.cmd_mc"),
            "cli.validate_s": tot("cli.cmd_validate"),
            "cli.report_s": tot("cli.cmd_report"),
            "artifacts.write_s": tot(*ARTIFACT_WRITERS),
            "artifacts.bytes": sum(sum(info.get(n, [])) for n in ARTIFACT_WRITERS),
            "distributions.solves": calls.get("distributions.solve_distribution", 0),
            "distributions.solve_s": median("distributions.solve_distribution"),
            "system_model.closed_loop_s": tot("system_model.closed_loop_control_batch"),
            "system_model.closed_loop_states":
                sum(info.get("system_model.closed_loop_control_batch", [])),
            "system_model.coeff_eval_s": tot(*COEFF_EVALUATORS),
            "system_model.coeff_evals": sum(calls.get(n, 0) for n in COEFF_EVALUATORS),
            "pde_engine.mask_s": tot("pde_engine.build_mask"),
            "pde_engine.spec_check_s": tot("pde_engine.IbvpSpec.__post_init__"),
            "pde_engine.stepper_setup_s": tot("pde_engine.ThetaStepper.__init__"),
            "pde_engine.factor_mb": counter("factor_bytes") / 1e6,
            "pde_engine.factorizations": counter("factorizations"),
            "pde_engine.march_s": march,
            "pde_engine.steps": calls.get("pde_engine.ThetaStepper.step", 0),
            "pde_engine.step_ms": 1e3 * median("pde_engine.ThetaStepper.step"),
            "pde_engine.node_steps_per_s":
                sum(info.get("pde_engine.ThetaStepper.step", [])) / march if march else 0.0,
            "pde_engine.factor_solves": counter("factor_solves"),
            "pde_engine.krylov_calls": counter("krylov_calls"),
            "pde_engine.direct_fallbacks": counter("direct_fallbacks"),
            "pde_engine.reported_iterations": sum(info.get("pde_engine.solve_ibvp", [])),
            "pde_engine.probe_s": nested_solve,
            "pde_engine.sample_s": tot("pde_engine.FieldSeries.sample"),
            "mc_oracle.simulate_s": simulate,
            "mc_oracle.noise_s": tot("mc_oracle._path_noise"),
            "mc_oracle.path_steps": path_steps,
            "mc_oracle.path_steps_per_s": path_steps / simulate if simulate else 0.0,
            "mc_oracle.excluded_paths": sum(e[1] for e in ens),
            "mc_oracle.empirical_s": tot(*EMPIRICAL),
            "trace.spans": len(spans),
            "trace.self_sum_s": sum(layer_self.values()),
            "trace.wall_s": wall_s,
        })
        return m

    def write(self, path: str, run_id: str) -> None:
        """Write every span as one JSON line; ``parent`` is -1 for a root span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, rnd, info) in enumerate(self.spans):
                fh.write(json.dumps({"run": f"{run_id}:{rnd}", "id": i, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "info": info}) + "\n")
