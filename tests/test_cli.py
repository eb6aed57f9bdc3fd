import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from safeprob import artifacts, cli, distributions, expressions, mc_oracle, pde_engine
from safeprob.artifacts import export_snapshot_csv
from safeprob.cli import main
from safeprob.config import REQUIRED, SCHEMA, ExperimentConfig, config_hash, validate_config
from safeprob.distributions import NumericsConfig, QuerySpec, solve_distribution
from safeprob.errors import ConfigError
from safeprob.library import EXAMPLES, example_names, make_example
from safeprob.pde_engine import GridSpec

from conftest import CONFIG_DIR, EXIT_DRIFTED, REPO_ROOT, assert_no_child_left, pin_cpus


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def small_bm_doc(out_dir, kind="exit_cdf", states=((1.0,),), horizon=1.0):
    return {
        "example": "drifted_bm_1d",
        "query": {
            "kind": kind,
            "states": [list(s) for s in states],
            "horizon": horizon,
            "times": {"start": 0.0, "stop": horizon or 1.0, "num": 21} if horizon else None,
        },
        "numerics": {"box_lo": [0.0], "box_hi": [6.0], "cells": [300], "dt": 0.002},
        "mc": {"n_paths": 4000, "dt": 0.002, "seed": 99},
        "output": {"dir": out_dir},
    }


def _refused_stderr(tmp_path, capsys, monkeypatch, command, override):
    """The stderr of ``command`` on the small config with ``override``, which
    must exit 2 before it solves, simulates or writes anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command ran before rejecting its config")

    monkeypatch.setattr(cli, "solve_distribution", refuse)
    monkeypatch.setattr(cli, "simulate_paths", refuse)
    path = write_config(tmp_path, small_bm_doc(str(tmp_path / "out")))
    assert main([command, "--config", path, "--override", override]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def _inline_system(**fields):
    """An override for the 1D inline system with ``fields`` replaced."""
    section = {"dim_state": 1, "dim_input": 1, "dim_noise": 1,
               "f": ["1"], "g": [["0"]], "sigma": [["1"]], **fields}
    return "system=" + json.dumps(section)


def strip_times_if_zero_horizon(doc):
    if doc["query"].get("times") is None:
        doc["query"].pop("times")
    return doc


def test_import_leaves_scipy_interpolate_unloaded():
    # The solver samples fields with its own multilinear table; importing
    # scipy.interpolate would add about 16 MB to every command's RSS.
    pythonpath = [str(REPO_ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    code = "import sys, safeprob, safeprob.cli; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False"


class TestConfigValidation:
    def test_shipped_configs_validate(self):
        for name in ("drifted_bm_exit.json", "drifted_bm_recovery.json",
                     "double_integrator_exit.json", "unicycle_disk_exit.json"):
            with open(CONFIG_DIR / name, "r", encoding="utf-8") as fh:
                validate_config(json.load(fh))

    def test_unknown_key_rejected_with_pointer(self):
        with pytest.raises(ConfigError, match="query.tolerance"):
            validate_config({"example": "drifted_bm_1d",
                             "query": {"kind": "exit_cdf", "states": [[1.0]],
                                       "horizon": 1.0, "tolerance": 0.1}})

    # The ids of the numerics cases predate the section parameter.
    @pytest.mark.parametrize("section, key, value", [
        pytest.param("numerics", "theta", 0.5, id="theta-0.5"),
        pytest.param("numerics", "mollify_initial", True, id="mollify_initial-True"),
        pytest.param("numerics", "halo_cells", 2, id="halo_cells-2"),
        pytest.param("numerics", "probe_tolerance", 1e-2, id="probe_tolerance-0.01"),
        pytest.param("output", "formats", ["csv"], id="output.formats"),
        pytest.param("output", "snapshot_times", [0.5], id="output.snapshot_times"),
    ])
    def test_removed_numerics_keys_rejected(self, tmp_path, section, key, value):
        doc = small_bm_doc(str(tmp_path))
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"unknown key.*{section}\\.{key}"):
            ExperimentConfig.from_doc(doc)

    @pytest.mark.parametrize("command", ["solve", "mc"])
    @pytest.mark.parametrize("times,key", [
        pytest.param({"num": 0}, "num", id="num-0"),
        pytest.param({"num": -1}, "num", id="num--1"),
        pytest.param({"start": -0.5}, "start", id="start--0.5"),
        pytest.param({"stop": 1.5}, "stop", id="stop-1.5"),
        pytest.param({"start": 1.0, "stop": 0.0}, "start", id="start-after-stop"),
    ])
    def test_bad_query_times_exit_2(self, tmp_path, capsys, command, times, key):
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["query"]["times"].update(times)
        path = write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 2
        assert f"query.times.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # The message names the configured count and minimum, not the padded ones;
    # the case keeps its id from when it matched "below minimum" alone.
    @pytest.mark.parametrize("cells,message", [
        ([800, 10], "equal lengths"),
        pytest.param([4], "axis 0: cell count 4 below minimum 6", id="cells1-below minimum"),
        ([5_000_000], "above cap"),
    ])
    def test_malformed_numerics_exit_2(self, tmp_path, capsys, cells, message):
        out = tmp_path / "out"
        argv = ["solve", "--config", str(CONFIG_DIR / "drifted_bm_exit.json"),
                "--out", str(out), "--override", f"numerics.cells={json.dumps(cells)}"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [
        ("solve", "query"), ("mc", "query"), ("validate", "query"), ("report", "query"),
        ("mc", "mc"), ("validate", "mc"), ("solve", "numerics"),
    ])
    def test_missing_section_exits_2(self, tmp_path, capsys, command, section):
        doc = small_bm_doc(str(tmp_path / "out"))
        if section == "numerics":
            # An inline system has no example to take the numerics from.
            del doc["example"]
            doc.update(system={"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                               "f": ["1"], "g": [["0"]], "sigma": [["1"]]},
                       barrier={"phi": "x1"})
        del doc[section]
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"missing required key (at config key '{section}')" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_numerics_section_overrides_example_keys(self):
        ex = make_example("double_integrator")
        cfg = ExperimentConfig.from_file(CONFIG_DIR / "double_integrator_exit.json",
                                         ["numerics.dt=0.002"])
        assert cfg.numerics() == NumericsConfig(ex.box_lo, ex.box_hi, ex.cells, 0.002)
        assert "box_lo" not in cfg.doc["numerics"]

    def test_example_numerics_checked_against_inline_system(self, tmp_path, capsys):
        # The example supplies a 2D box, which an inline 1D system cannot use.
        doc = small_bm_doc(str(tmp_path / "out"))
        doc.update(example="double_integrator",
                   system={"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                           "f": ["1"], "g": [["0"]], "sigma": [["1"]]},
                   barrier={"phi": "x1"})
        del doc["numerics"]
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "one per state axis (1) (at config key 'numerics.box_lo')" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, system, numerics, states, key", [
        # The example's disk barrier names x2, which a 1D system lacks.
        ("double_integrator_exit", {"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                                    "f": ["1"], "g": [["0"]], "sigma": [["1"]]},
         {"box_lo": [0.0], "box_hi": [4.0], "cells": [100], "dt": 0.01}, [[1.0]],
         "barrier.phi"),
        # The example's nominal has two inputs, the 2D system one.
        ("unicycle_disk_exit", {"dim_state": 2, "dim_input": 1, "dim_noise": 1,
                                "f": ["x2", "0"], "g": [["0"], ["1"]], "sigma": [["0"], ["1"]]},
         {"box_lo": [-1.1, -1.1], "box_hi": [1.1, 1.1], "cells": [20, 21], "dt": 0.01},
         [[0.0, 0.0]], "policy.nominal"),
    ])
    def test_example_section_of_another_dimension_exits_2(self, tmp_path, capsys, config,
                                                           system, numerics, states, key):
        doc = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        doc.update(system=system, numerics=numerics, output={"dir": str(tmp_path / "out")})
        doc["query"]["states"] = states
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        section = key.split(".")[0]
        assert (f"; the {section} section comes from example '{doc['example']}' "
                f"(at config key '{key}')") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("always::RuntimeWarning")
    @pytest.mark.parametrize("policy", [{"kind": "zero_cbf"}, {"kind": "gradient", "c": "1"}])
    def test_derivative_not_finite_on_grid_exits_2(self, tmp_path, capsys, policy):
        # At the interior node x1 = 0 the slope of sqrt(abs(x1)) is 0.5 / 0
        # times sign(0), NaN: the control there is not finite, and no problem
        # is posed with it.
        doc = small_bm_doc(str(tmp_path / "out"))
        doc.update(system={"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                           "f": ["1"], "g": [["1"]], "sigma": [["1"]]},
                   barrier={"phi": "x1 + 1 + sqrt(abs(x1)) / 10"}, policy=policy,
                   numerics={"box_lo": [-2.0], "box_hi": [2.0], "cells": [8], "dt": 0.01})
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "error: convection/sigma fields contain non-finite values" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_derivative_nested_too_deeply_exits_2(self, tmp_path, capsys, monkeypatch):
        # phi compiles at 300 levels; the product rule nests its slope deeper
        # than MAX_DEPTH.
        phi = "x1" + " * x1" * 300
        err = _refused_stderr(tmp_path, capsys, monkeypatch, "solve",
                              f'barrier={{"phi": "{phi}"}}')
        assert "nested too deeply" in err
        assert err.rstrip().endswith("(at config key 'barrier.phi')")
        assert "RecursionError" not in err and "Traceback" not in err

    @pytest.mark.parametrize("name", example_names())
    def test_example_document_is_a_config(self, name):
        # Each example states its model in a configuration's own sections.
        doc = {key: value for key, value in EXAMPLES[name].items()
               if key not in ("x0", "horizon")}
        ex = make_example(name)
        assert ExperimentConfig.from_doc(doc).numerics() == NumericsConfig(
            ex.box_lo, ex.box_hi, ex.cells, ex.dt)
        assert ex.system.n == doc["system"]["dim_state"] == len(ex.x0)

    def test_partial_numerics_without_example_exits_2(self, tmp_path, capsys):
        doc = small_bm_doc(str(tmp_path / "out"))
        del doc["example"]
        doc.update(system={"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                           "f": ["1"], "g": [["0"]], "sigma": [["1"]]},
                   barrier={"phi": "x1"}, numerics={"dt": 0.002})
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 2
        assert "missing required key (at config key 'numerics.box_lo')" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_without_mc_fails_before_solving(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validate solved a query it cannot check")

        monkeypatch.setattr(distributions, "solve_distribution", refuse)
        monkeypatch.setattr(cli, "solve_distribution", refuse)
        doc = small_bm_doc(str(tmp_path / "out"))
        del doc["mc"]
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("command, override, key", [
        ("solve", 'policy={"kind": "none", "alpha_gain": -1}', "policy.alpha_gain"),
        ("solve", 'policy={"kind": "none", "alpha_gain": 0}', "policy.alpha_gain"),
        ("solve", "numerics.box_hi=[-1]", "numerics.box_hi"),
        ("solve", "numerics.box_hi=[0]", "numerics.box_hi"),
        ("solve", "numerics.dt=0", "numerics.dt"),
        ("solve", "numerics.cells=[10,10]", "numerics.cells"),
        ("mc", "mc.dt=5", "mc.dt"),
        ("validate", "mc.dt=5", "mc.dt"),
        ("solve", 'query.kind="bogus"', "query.kind"),
        ("solve", "query.horizon=-1", "query.horizon"),
        ("solve", 'policy={"kind": "bogus"}', "policy.kind"),
        ("solve", 'policy={"kind": "gradient"}', "policy.c"),
        ("mc", "mc.seed=-1", "mc.seed"),
        ("mc", "mc.seed=18446744073709551616", "mc.seed"),
        ("mc", "mc.dt=0", "mc.dt"),
        ("mc", "mc.n_paths=0", "mc.n_paths"),
        # json reads NaN and Infinity; each must stop at its key.
        ("solve", "numerics.dt=NaN", "numerics.dt"),
        ("mc", "mc.dt=NaN", "mc.dt"),
        ("solve", "query.horizon=Infinity", "query.horizon"),
        ("mc", "query.horizon=Infinity", "query.horizon"),
        ("solve", "query.level=NaN", "query.level"),
        ("mc", "query.level=NaN", "query.level"),
        ("solve", "numerics.box_hi=[Infinity]", "numerics.box_hi[0]"),
        ("mc", "numerics.box_hi=[Infinity]", "numerics.box_hi[0]"),
        ("solve", "query.states=[[NaN]]", "query.states[0][0]"),
        ("mc", "numerics.box_lo=[-Infinity]", "numerics.box_lo[0]"),
        # An integer past the float range has no finite float value.
        pytest.param("solve", f"query.horizon={10**400}", "query.horizon",
                     id="solve-query.horizon=10**400-query.horizon"),
        # Finite but absurd step and time counts stop before any allocation.
        ("mc", "query.horizon=1e300", "mc.dt"),
        ("mc", "mc.dt=1e-300", "mc.dt"),
        ("mc", 'query.times={"start": 0, "stop": 1, "num": 100000000}', "query.times.num"),
        ("solve", "numerics.dt=1e-300", "numerics.dt"),
        # Empty dimensions and a zero volatility stop at their key too.
        ("solve", 'system={"dim_state": 0, "dim_input": 1, "dim_noise": 1, "f": [], '
                  '"g": [], "sigma": []}', "system.dim_state"),
        ("solve", 'system={"dim_state": 1, "dim_input": 0, "dim_noise": 1, "f": ["1"], '
                  '"g": [[]], "sigma": [["1"]]}', "system.dim_input"),
        ("mc", 'system={"dim_state": 1, "dim_input": 1, "dim_noise": 0, "f": ["1"], '
               '"g": [["0"]], "sigma": [[]]}', "system.dim_noise"),
        ("validate", 'validation.analytic={"x0": 1, "drift": 1, "vol": 0}',
         "validation.analytic.vol"),
        # The query sets the level; a barrier has none.
        ("solve", 'barrier={"phi": "x1", "level": 0.5}', "barrier.level"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                        override, key):
        err = _refused_stderr(tmp_path, capsys, monkeypatch, command, override)
        assert f"(at config key '{key}')" in err

    # Fixed values, not keys: the DKW confidence, the divergence limit, the
    # check tolerances and the boundary probe.  The five tolerances went as
    # one section, so the unknown key is that section.
    @pytest.mark.parametrize("command, override, key", [
        ("mc", "mc.confidence=0.99", "mc.confidence"),
        ("mc", "mc.max_divergence_fraction=0.5", "mc.max_divergence_fraction"),
        ("mc", "mc.event_log=true", "mc.event_log"),
        ("solve", "numerics.boundary_probe=false", "numerics.boundary_probe"),
        *(("validate", f"validation.tolerances.{name}=0.1", "validation.tolerances")
          for name in ("mc_ks", "analytic_ks", "complementarity", "monotonicity",
                       "boundary")),
    ])
    def test_removed_key_exits_2(self, tmp_path, capsys, monkeypatch, command, override,
                                 key):
        err = _refused_stderr(tmp_path, capsys, monkeypatch, command, override)
        assert f"unknown key (at config key '{key}')" in err

    # A parse, name, argument-count, literal or shape error in an inline
    # expression exits 2 at its key, a list item at its index.
    @pytest.mark.parametrize("command, override, key, reason", [
        ("solve", 'barrier={"phi": "2 +"}', "barrier.phi", "cannot parse"),
        ("mc", 'barrier={"phi": "log(x1)"}', "barrier.phi", "unknown function 'log'"),
        ("solve", 'barrier={"phi": "sin(x1, x1)"}', "barrier.phi", "sin() takes one argument"),
        ("solve", 'barrier={"phi": "norm()"}', "barrier.phi", "norm() takes one or more"),
        ("solve", 'barrier={"phi": "x1 + 1e999*0"}', "barrier.phi", "literal inf is not finite"),
        ("solve", _inline_system(f=["x2"]), "system.f[0]", "unknown variable 'x2'"),
        ("solve", _inline_system(f=["1", "0"]), "system.f", "expected a list of length 1"),
        ("mc", _inline_system(g=[["0"], ["1"]]), "system.g", "expected a list of length 1"),
        ("solve", _inline_system(g=[["0", "1"]]), "system.g[0]", "expected a list of length 1"),
        ("solve", _inline_system(g=[["sqrt()"]]), "system.g[0][0]", "sqrt() takes one"),
        ("validate", _inline_system(sigma=[["1 +"]]), "system.sigma[0][0]", "cannot parse"),
        ("mc", _inline_system(sigma=[[]]), "system.sigma[0]", "expected a list of length 1"),
        ("solve", 'policy={"kind": "none", "nominal": ["0", "1"]}', "policy.nominal",
         "expected a list of length 1"),
        ("mc", 'policy={"kind": "none", "nominal": ["exp(x1, x1)"]}', "policy.nominal[0]",
         "exp() takes one argument"),
        ("solve", 'policy={"kind": "gradient", "c": "x9"}', "policy.c", "unknown variable"),
        ("validate", 'policy={"kind": "gradient", "c": "abs()"}', "policy.c",
         "abs() takes one argument"),
    ])
    def test_bad_expression_exits_2(self, tmp_path, capsys, monkeypatch, command, override,
                                    key, reason):
        err = _refused_stderr(tmp_path, capsys, monkeypatch, command, override)
        assert reason in err
        assert f"(at config key '{key}')" in err

    @pytest.mark.parametrize("depth", [2000, 5000])
    def test_deep_expression_exits_2(self, tmp_path, capsys, monkeypatch, depth):
        override = f'barrier={{"phi": "{"-" * depth}x1"}}'
        err = _refused_stderr(tmp_path, capsys, monkeypatch, "solve", override)
        assert "nested too deeply" in err
        assert "(at config key 'barrier.phi')" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "mc"])
    def test_deepest_expression_that_compiles_runs(self, tmp_path, capsys, command):
        # It is taped and differentiated at the full depth, then evaluated in
        # the solve's mask and in every simulated step.  An even count of
        # signs leaves x1, so the run prints what phi = x1 prints.
        printed = []
        for phi in ("-" * expressions.MAX_DEPTH + "x1", "x1"):
            doc = small_bm_doc(str(tmp_path / "out"), horizon=0.1)
            doc["barrier"] = {"phi": phi}
            doc["mc"]["n_paths"] = 500
            assert main([command, "--config", write_config(tmp_path, doc)]) == 0
            printed.append(capsys.readouterr().out.splitlines()[0])
        assert printed[0] == printed[1]

    @pytest.mark.filterwarnings("always::RuntimeWarning")
    @pytest.mark.parametrize("command, where", [
        ("solve", "query state"), ("validate", "query state"), ("mc", "initial state"),
    ])
    def test_barrier_not_finite_at_query_state_exits_2(self, tmp_path, capsys, monkeypatch,
                                                        command, where):
        # phi = sqrt(x1 - 2) is NaN at the state 1.0, which sits on neither
        # side of the level set: no wrong-side warning, and nothing solved or
        # simulated.
        def refuse(*args, **kwargs):
            raise AssertionError("a solve or a simulation ran")

        monkeypatch.setattr(distributions, "_assemble", refuse)
        monkeypatch.setattr(mc_oracle, "_simulate_block", refuse)
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["barrier"] = {"phi": "sqrt(x1 - 2)"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert not [w for w in caught if issubclass(w.category, distributions.SafeProbWarning)]
        err = capsys.readouterr().err
        assert f"error: barrier phi is nan at {where} [1.0]" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("always::RuntimeWarning")
    def test_barrier_not_finite_on_grid_exits_2(self, tmp_path, capsys):
        # NaN below x1 = 2 would be pinned on both sides of the level set; at
        # the query state 3.0 phi is finite.
        doc = small_bm_doc(str(tmp_path / "out"), states=((3.0,),))
        doc["barrier"] = {"phi": "sqrt(x1 - 2)"}
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "error: barrier phi is nan at grid node [" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "mc", "validate"])
    @pytest.mark.parametrize("states", [[], [[1.0, 2.0]]], ids=["empty", "2-vector"])
    def test_bad_query_states_exit_2(self, tmp_path, capsys, command, states):
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["query"]["states"] = states
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "states must be a non-empty list of 1-vectors" in err
        assert "(at config key 'query.states')" in err
        assert not (tmp_path / "out").exists()

    def test_shipped_config_hashes(self):
        # The hash names every artifact; schema defaults never enter it.
        expected = {"drifted_bm_exit": "aa3f3ba2ccc2", "drifted_bm_recovery": "785611bb88ce",
                    "double_integrator_exit": "d07ae100157f",
                    "unicycle_disk_exit": "1c1bb92352e4"}
        for name, digest in expected.items():
            assert ExperimentConfig.from_file(CONFIG_DIR / f"{name}.json").hash == digest

    def test_readme_table_gives_every_schema_default(self):
        def optional_leaves(schema, prefix=""):
            for key, (default, sub, *_rule) in schema.items():
                if isinstance(sub, dict):
                    yield from optional_leaves(sub, f"{prefix}{key}.")
                elif default is not REQUIRED:
                    yield f"{prefix}{key}", default

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \|", readme, re.M))
        for key, default in optional_leaves(SCHEMA):
            shown = "unset" if default is None else f"`{json.dumps(default)}`"
            assert rows[key].startswith(shown), key

    def test_missing_barrier_pointer(self):
        with pytest.raises(ConfigError, match="barrier"):
            validate_config({"system": {
                "dim_state": 1, "dim_input": 1, "dim_noise": 1,
                "f": ["1"], "g": [["0"]], "sigma": [["1"]]}})

    def test_unknown_example_rejected(self):
        with pytest.raises(ConfigError, match="unknown example"):
            validate_config({"example": "pendulum"})

    def test_hash_ignores_output_location(self):
        a = {"example": "drifted_bm_1d", "output": {"dir": "a"}}
        b = {"example": "drifted_bm_1d", "output": {"dir": "b"}}
        assert config_hash(a) == config_hash(b)

    def test_overrides_change_hash(self, tmp_path):
        doc = small_bm_doc(str(tmp_path))
        path = write_config(tmp_path, doc)
        base = ExperimentConfig.from_file(path)
        tweaked = ExperimentConfig.from_file(path, ["mc.seed=123"])
        assert base.hash != tweaked.hash
        assert tweaked.doc["mc"]["seed"] == 123

    def test_inline_system_builds(self, tmp_path):
        doc = {
            "system": {"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                       "f": ["1"], "g": [["0"]], "sigma": [["1"]]},
            "barrier": {"phi": "x1"},
            "policy": {"kind": "none"},
        }
        cfg = ExperimentConfig.from_doc(doc)
        system, barrier, policy = cfg.models()
        assert barrier.phi_at(np.array([[2.0]]))[0] == 2.0
        np.testing.assert_allclose(system.f_at(np.array([[3.0]])), [[1.0]])


class TestSolveCommand:
    def test_solve_writes_artifacts_and_value(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, small_bm_doc(out))
        assert main(["solve", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        csv_path = Path(out) / f"exit_cdf_{cfg.hash}.csv"
        assert csv_path.exists()
        rows = csv_path.read_text().strip().split("\n")
        assert rows[0] == "x1,t,level,value"
        last = rows[-1].split(",")
        assert float(last[1]) == 1.0
        assert float(last[3]) == pytest.approx(EXIT_DRIFTED, abs=5e-3)
        manifest = json.loads((Path(out) / f"manifest_solve_{cfg.hash}.json").read_text())
        assert manifest["config_hash"] == cfg.hash
        for name in manifest["files"]:
            assert (Path(out) / name).exists()

    def test_query_level_matches_the_library_query(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_bm_doc(str(out)))
        assert main(["solve", "--config", path, "--override", "query.level=0.5"]) == 0
        cfg = ExperimentConfig.from_file(path, ["query.level=0.5"])
        written = json.loads((out / f"exit_cdf_{cfg.hash}.json").read_text())
        q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=cfg.numerics(), level=0.5,
                      times=cfg.query_times())
        result = solve_distribution("exit_cdf", *cfg.models(), q)
        assert written["level"] == result.level == 0.5
        assert written["values"] == result.values.tolist()

    @pytest.mark.filterwarnings("always::safeprob.distributions.SafeProbWarning")
    def test_warnings_print_one_line_each(self, tmp_path, capsys):
        path = write_config(tmp_path, small_bm_doc(str(tmp_path / "out")))
        shown = warnings.showwarning
        assert main(["solve", "--config", path, "--override", "query.level=100"]) == 0
        assert warnings.showwarning is shown
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("warning: exit_cdf: ") for line in err)
        assert "lies on the wrong side" in err[0] and "the mask is trivial" in err[1]

    def test_flagged_probe_reaches_both_json_artifacts(self, tmp_path):
        # A box that ends 0.5 above the query state truncates the exit law.
        out = tmp_path / "out"
        doc = small_bm_doc(str(out))
        doc["numerics"] = {"box_lo": [0.0], "box_hi": [1.5], "cells": [60], "dt": 0.01}
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        result = json.loads((out / f"exit_cdf_{cfg.hash}.json").read_text())["diagnostics"]
        fields = json.loads((out / f"exit_cdf_{cfg.hash}_fields.json").read_text())
        fields = fields["diagnostics"]
        assert result["boundary_flagged"] is True
        assert result["boundary_sensitivity"] > 1e-2
        assert result["notes"] == [f"boundary sensitivity {result['boundary_sensitivity']:.3e} "
                                   "exceeds tolerance 1.0e-03"]
        for key in ("boundary_sensitivity", "boundary_flagged", "notes"):
            assert fields[key] == result[key]

    def test_zero_horizon_solve_returns_indicator(self, tmp_path):
        out = str(tmp_path / "out")
        doc = small_bm_doc(out, kind="invariance_ccdf", states=((1.0,), (2.0,)),
                           horizon=0.0)
        doc["query"].pop("times")
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        doc_out = json.loads((Path(out) / f"invariance_ccdf_{cfg.hash}.json").read_text())
        assert doc_out["values"] == [[1.0], [1.0]]

    def test_missing_barrier_exits_2(self, tmp_path, capsys):
        doc = {"system": {"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                          "f": ["1"], "g": [["0"]], "sigma": [["1"]]},
               "query": {"kind": "exit_cdf", "states": [[1.0]], "horizon": 1.0},
               "numerics": {"box_lo": [0.0], "box_hi": [4.0], "cells": [100],
                            "dt": 0.01}}
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 2
        assert "barrier" in capsys.readouterr().err

    def test_negative_gradient_gain_exits_2(self, tmp_path, capsys):
        doc = {"system": {"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                          "f": ["0"], "g": [["1"]], "sigma": [["1"]]},
               "barrier": {"phi": "x1"},
               "policy": {"kind": "gradient", "c": "-1"},
               "query": {"kind": "exit_cdf", "states": [[1.0]], "horizon": 0.1},
               "numerics": {"box_lo": [0.0], "box_hi": [4.0], "cells": [40],
                            "dt": 0.01},
               "output": {"dir": str(tmp_path / "out")}}
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 2
        assert "gradient gain c is negative" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self):
        assert main(["solve", "--config", "/nonexistent/config.json"]) == 2

    def test_solve_reruns_identically(self, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        doc = small_bm_doc(out1)
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        assert main(["solve", "--config", path, "--out", out2]) == 0
        cfg = ExperimentConfig.from_file(path)
        for name in (f"exit_cdf_{cfg.hash}.csv", f"exit_cdf_{cfg.hash}.json"):
            assert (Path(out1) / name).read_bytes() == (Path(out2) / name).read_bytes()

    def test_identical_rewrite_leaves_files_alone(self, tmp_path):
        # A second identical write opens no file for writing, so each file
        # keeps its inode and modification time; a changed payload is written.
        path = write_config(tmp_path, small_bm_doc(str(tmp_path / "unused")))
        cfg = ExperimentConfig.from_file(path)
        q = QuerySpec(states=[[1.0]], horizon=1.0, numerics=cfg.numerics(),
                      times=cfg.query_times())
        result = solve_distribution("exit_cdf", *cfg.models(), q)
        out = str(tmp_path / "out")
        written = artifacts.write_result(result, out, cfg.hash)
        # Backdated, so that a rewrite would show within the clock's tick.
        for p in written:
            os.utime(p, ns=(10**18, 10**18))
        before = {p: os.stat(p) for p in written}
        assert artifacts.write_result(result, out, cfg.hash) == written
        for p, st in before.items():
            now = os.stat(p)
            assert (now.st_ino, now.st_mtime_ns) == (st.st_ino, st.st_mtime_ns)
        result.values[0, -1] = 0.5
        artifacts.write_result(result, out, cfg.hash)
        csv_path, json_path, fields_path = written
        assert Path(csv_path).read_text().endswith(",0.0,0.5\n")
        assert json.loads(Path(json_path).read_text())["values"][0][-1] == 0.5
        assert os.stat(fields_path).st_mtime_ns == before[fields_path].st_mtime_ns

    @pytest.mark.xfail(strict=True, reason="the four-point cross-diffusion stencil is not "
                       "monotone: the field dips to -1.2e-8 and the solve exits 3 "
                       "(ROADMAP item 9)")
    def test_weakly_correlated_noise_solves(self, tmp_path, capsys):
        # rho = 0.2 between the two noise rows, in the unit disk.
        doc = {
            "system": {"dim_state": 2, "dim_input": 1, "dim_noise": 2, "f": ["x2", "-x1"],
                       "g": [["0"], ["0"]], "sigma": [["0.5", "0.05"], ["0.05", "0.5"]]},
            "barrier": {"phi": "1 - x1^2 - x2^2"},
            "policy": {"kind": "none"},
            "query": {"kind": "exit_cdf", "states": [[0.0, 0.0]], "horizon": 1.0,
                      "times": {"start": 0.0, "stop": 1.0, "num": 101}},
            "numerics": {"box_lo": [-1.2, -1.2], "box_hi": [1.2, 1.2], "cells": [48, 48],
                         "dt": 0.005},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 0, \
            capsys.readouterr().err

    def test_row_sum_defect_reported_on_2d_zero_cbf_solve(self, tmp_path):
        out = tmp_path / "out"
        argv = ["solve", "--config", str(CONFIG_DIR / "double_integrator_exit.json"),
                "--out", str(out), "--override", "query.horizon=0.05",
                "--override", "query.times.stop=0.05"]
        assert main(argv) == 0
        for name in ("exit_cdf_*[0-9a-f].json", "exit_cdf_*_fields.json"):
            [artifact] = out.glob(name)
            defect = json.loads(artifact.read_text())["diagnostics"]["row_sum_defect"]
            assert 0.0 <= defect <= 1e-10

    @staticmethod
    def _solve_per_blas_thread_count(tmp_path, config, overrides) -> list:
        """exit_cdf result bytes from fresh processes with one and two OpenBLAS threads."""
        cfg = ExperimentConfig.from_file(config, overrides)
        pythonpath = [str(REPO_ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            argv = [sys.executable, "-m", "safeprob.cli", "solve", "--config", config,
                    "--out", str(out)]
            for item in overrides:
                argv += ["--override", item]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=600)
            results.append((out / f"exit_cdf_{cfg.hash}.json").read_bytes())
        return results

    def test_result_bytes_independent_of_blas_threads(self, tmp_path):
        # The shipped 2D config cut to horizon 0.2: two axis factors a step.
        results = self._solve_per_blas_thread_count(
            tmp_path, str(CONFIG_DIR / "double_integrator_exit.json"),
            ["query.horizon=0.2", "query.times.stop=0.2"])
        assert results[0] == results[1]
        diag = json.loads(results[0])["diagnostics"]
        assert diag["total_iterations"] == 2 * diag["n_steps"] == 400

    def test_3d_result_bytes_independent_of_blas_threads(self, tmp_path):
        # The shipped 3D config cut to horizon 0.1, three axis factors a
        # step, on 23k nodes: long enough vectors that a threaded BLAS
        # reduction in the residual norms would change the bytes.
        ex = make_example("unicycle_disk")
        numerics = {"box_lo": list(ex.box_lo), "box_hi": list(ex.box_hi),
                    "cells": [32, 32, 16], "dt": ex.dt}
        results = self._solve_per_blas_thread_count(
            tmp_path, str(CONFIG_DIR / "unicycle_disk_exit.json"),
            ["query.horizon=0.1", "query.times.stop=0.1", "numerics=" + json.dumps(numerics)])
        assert results[0] == results[1]
        diag = json.loads(results[0])["diagnostics"]
        assert diag["total_iterations"] == 3 * diag["n_steps"] == 150


class TestMcCommand:
    def test_mc_deterministic_across_runs(self, tmp_path):
        doc = small_bm_doc(str(tmp_path / "m1"))
        path = write_config(tmp_path, doc)
        assert main(["mc", "--config", path]) == 0
        assert main(["mc", "--config", path, "--out", str(tmp_path / "m2")]) == 0
        cfg = ExperimentConfig.from_file(path)
        names = [f"mc_exit_cdf_{cfg.hash}.csv", f"mc_exit_cdf_{cfg.hash}.json",
                 f"mc_summary_{cfg.hash}.json"]
        for name in names:
            a = (tmp_path / "m1" / name).read_bytes()
            b = (tmp_path / "m2" / name).read_bytes()
            assert a == b

    @pytest.mark.filterwarnings("always::safeprob.distributions.SafeProbWarning")
    def test_states_past_the_first_are_warned_and_not_simulated(self, tmp_path, capsys):
        config = str(CONFIG_DIR / "drifted_bm_exit.json")
        assert main(["mc", "--config", config, "--out", str(tmp_path / "one")]) == 0
        capsys.readouterr()
        assert main(["mc", "--config", config, "--out", str(tmp_path / "two"),
                     "--override", "query.states=[[1.0],[3.0]]"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == [
            "warning: Monte Carlo simulates the first of 2 query states only; "
            "1 not simulated"]
        [one] = (tmp_path / "one").glob("mc_exit_cdf_*.json")
        [two] = (tmp_path / "two").glob("mc_exit_cdf_*.json")
        assert json.loads(two.read_text()) == json.loads(one.read_text())

    def test_dead_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        # 20,000 paths make several blocks, so two CPUs fork two workers.
        pin_cpus(monkeypatch, 2)
        caller = os.getpid()

        def block(*args):
            if os.getpid() != caller:
                os._exit(9)
            pytest.fail("a block ran in the calling process")

        monkeypatch.setattr(mc_oracle, "_simulate_block", block)
        assert main(["mc", "--config", str(CONFIG_DIR / "drifted_bm_exit.json"),
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: worker process exited with code 9 and sent no result")
        assert_no_child_left()

    def test_seed_flag_changes_artifacts(self, tmp_path):
        doc = small_bm_doc(str(tmp_path / "m1"))
        path = write_config(tmp_path, doc)
        assert main(["mc", "--config", path]) == 0
        assert main(["mc", "--config", path, "--seed", "1234",
                     "--out", str(tmp_path / "m3")]) == 0
        cfg1 = ExperimentConfig.from_file(path)
        cfg2 = ExperimentConfig.from_file(path, ["mc.seed=1234"])
        assert cfg1.hash != cfg2.hash
        assert (tmp_path / "m3" / f"mc_exit_cdf_{cfg2.hash}.json").exists()

    def test_prints_the_time_it_reports(self, tmp_path, capsys):
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["query"]["times"]["stop"] = 0.5
        doc["mc"]["n_paths"] = 500
        path = write_config(tmp_path, doc)
        assert main(["mc", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        curve = json.loads((tmp_path / "out" / f"mc_exit_cdf_{cfg.hash}.json").read_text())
        assert curve["grid"][-1] == 0.5
        assert f"P(exit<=0.5) = {curve['values'][-1]:.4f}" in capsys.readouterr().out

    def test_prints_the_passage_of_the_query_kind(self, tmp_path, capsys):
        # Paths of an entry query start below the level, so each exits at 0:
        # the line reports the entry curve.
        config = CONFIG_DIR / "drifted_bm_recovery.json"
        assert main(["mc", "--config", str(config), "--out", str(tmp_path)]) == 0
        cfg = ExperimentConfig.from_file(config)
        curve = json.loads((tmp_path / f"mc_entry_cdf_{cfg.hash}.json").read_text())
        assert f"P(entry<=1.0) = {curve['values'][-1]:.4f} +- " in capsys.readouterr().out

    @pytest.mark.parametrize("config, event", [("drifted_bm_exit", "exit"),
                                               ("drifted_bm_recovery", "entry")])
    def test_writes_the_curve_of_the_passage_its_paths_make(self, tmp_path, config, event):
        # The other passage's curve would be 1 throughout: its paths start past it.
        config = CONFIG_DIR / f"{config}.json"
        assert main(["mc", "--config", str(config), "--out", str(tmp_path),
                     "--override", "mc.n_paths=100"]) == 0
        tag = ExperimentConfig.from_file(config, ["mc.n_paths=100"]).hash
        curves = [f"mc_{name}_{tag}.{ext}" for name in (f"{event}_cdf", "max_cdf", "min_ccdf")
                  for ext in ("csv", "json")]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            curves + [f"mc_summary_{tag}.json", f"manifest_mc_{tag}.json"])

    def test_summary_records_the_step_the_paths_took(self, tmp_path):
        # A horizon of 1 at mc.dt 0.3 rounds to 3 steps of 1/3.
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["mc"].update(dt=0.3, n_paths=100)
        path = write_config(tmp_path, doc)
        assert main(["mc", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        summary = json.loads((tmp_path / "out" / f"mc_summary_{cfg.hash}.json").read_text())
        assert summary["dt"] == 1.0 / 3

    def test_zero_paths_exits_2(self, tmp_path, capsys):
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["mc"]["n_paths"] = 0
        path = write_config(tmp_path, doc)
        assert main(["mc", "--config", path]) == 2
        assert "n_paths" in capsys.readouterr().err

    @staticmethod
    def _divergent_doc(out_dir):
        # Cubic blow-up with a large step: every path overflows quickly.
        return {
            "system": {"dim_state": 1, "dim_input": 1, "dim_noise": 1,
                       "f": ["x1^3 + 10"], "g": [["0"]], "sigma": [["1"]]},
            "barrier": {"phi": "x1"},
            "query": {"kind": "exit_cdf", "states": [[1.0]], "horizon": 5.0},
            "numerics": {"box_lo": [0.0], "box_hi": [4.0], "cells": [100],
                         "dt": 0.01},
            "mc": {"n_paths": 50, "dt": 0.5, "seed": 5},
            "output": {"dir": out_dir},
        }

    def test_divergent_paths_exit_4(self, tmp_path):
        path = write_config(tmp_path, self._divergent_doc(str(tmp_path / "out")))
        assert main(["mc", "--config", path]) == 4

    def test_validate_checks_the_divergence_fraction(self, tmp_path, capsys):
        # A milder blow-up: some paths diverge and some survive.  validate
        # must refuse the ensemble just as mc does, not score the survivors.
        doc = self._divergent_doc(str(tmp_path / "out"))
        doc["system"]["f"] = ["x1^3"]
        doc["query"]["horizon"] = 2.0
        doc["mc"].update(n_paths=200, dt=0.2)
        path = write_config(tmp_path, doc)
        assert main(["mc", "--config", path]) == 4
        assert main(["validate", "--config", path]) == 4
        assert "exceed the allowed fraction" in capsys.readouterr().err
        cfg = ExperimentConfig.from_file(path)
        assert not (tmp_path / "out" / f"validation_{cfg.hash}.json").exists()


class TestValidateCommand:
    def test_shipped_reference_passes(self, tmp_path):
        with open(CONFIG_DIR / "drifted_bm_exit.json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["mc"]["n_paths"] = 5000
        doc["output"]["dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        report = json.loads(
            (tmp_path / "out" / f"validation_{cfg.hash}.json").read_text())
        assert report["all_pass"]
        names = {c["name"] for c in report["checks"]}
        assert names == {"mc_ks", "analytic_ks", "complementarity",
                         "monotonicity", "boundary"}

    def test_recovery_reference_passes(self, tmp_path):
        # Run at the shipped path count: the default KS tolerance assumes
        # the shipped statistical power.
        with open(CONFIG_DIR / "drifted_bm_recovery.json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["output"]["dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 0

    def test_underpowered_mc_check_reports_its_band(self, tmp_path, capsys):
        # 200 paths give a DKW half-width of 9.60e-2, above the KS tolerance
        # of 2e-2: the check is recorded as underpowered.  At seed 3 their
        # curve lies 7.04e-2 from the PDE's, ten steps of 1/200 past the
        # tolerance, so the check fails.
        out = tmp_path / "out"
        argv = ["validate", "--config", str(CONFIG_DIR / "drifted_bm_recovery.json"),
                "--seed", "3", "--override", "mc.n_paths=200", "--out", str(out)]
        assert main(argv) == 1
        assert re.search(r"FAIL mc_ks: \S+ \(tolerance 2\.000e-02, band 9\.603e-02, "
                         r"underpowered\)", capsys.readouterr().out)
        [path] = out.glob("validation_*.json")
        mc_ks, *others = json.loads(path.read_text())["checks"]
        assert mc_ks["band"] == pytest.approx(9.60e-2, abs=5e-5)
        assert mc_ks["underpowered"] is True and mc_ks["passed"] is False
        assert "vacuous" not in mc_ks
        assert not any("band" in c for c in others)

    def test_mc_check_without_a_passage_is_vacuous(self, tmp_path, capsys):
        # From x0 = 5, P(exit <= 1) is 2.4e-9: no path exits, and the Monte
        # Carlo curve is 0 over the whole tabulation, in both modes.
        out = tmp_path / "out"
        doc = small_bm_doc(str(out), states=((5.0,),))
        doc["mc"]["n_paths"] = 10000
        path = write_config(tmp_path, doc)
        tag = ExperimentConfig.from_file(path).hash
        assert main(["solve", "--config", path]) == 0
        assert main(["mc", "--config", path]) == 0
        doc["validation"] = {"pde_artifact": str(out / f"exit_cdf_{tag}.json"),
                             "mc_artifact": str(out / f"mc_exit_cdf_{tag}.json")}
        for config in (path, write_config(tmp_path, doc, name="cmp.json")):
            capsys.readouterr()
            assert main(["validate", "--config", config]) in (0, 1)
            assert re.search(r"PASS mc_ks: \S+ \(tolerance 2\.000e-02, band 1\.358e-02, "
                             r"vacuous\)\n", capsys.readouterr().out)
            report = out / f"validation_{ExperimentConfig.from_file(config).hash}.json"
            mc_ks, *others = json.loads(report.read_text())["checks"]
            assert mc_ks["vacuous"] is True and "underpowered" not in mc_ks
            assert not any("vacuous" in c for c in others)

    def test_validate_runs_one_distribution_solve(self, tmp_path, monkeypatch):
        # The query solves with its probe (1 + 2 solves); complementarity is
        # read off the operator, not from a solve of the complement kind.
        # One CPU keeps the probe's solves in this process, where they count.
        pin_cpus(monkeypatch, 1)
        calls = []
        original = pde_engine.solve_ibvp

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pde_engine, "solve_ibvp", counting)
        monkeypatch.setattr(distributions, "solve_ibvp", counting)
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["mc"]["n_paths"] = 500
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) in (0, 1)
        assert len(calls) == 3

    @staticmethod
    def _validate_with_operator(tmp_path, monkeypatch, capsys, shift):
        """Run validate on the small 1D exit query with the interior rows of its
        one axis changed: ``shift(spec)`` gives, per row, the weight its own
        column (``own``) or its pinned neighbours (``pinned``) lose.  The change
        reaches the factor's A, load and row sums as a changed operator row
        would; returns (exit code, stdout)."""
        original = pde_engine._axis_factor

        def changed(spec, axis, dt):
            A, load, sums = original(spec, axis, dt)
            own, pinned = shift(spec)
            A = A + sp.diags(dt * own)
            return A.tocsr(), load - dt * pinned, sums - own - pinned

        monkeypatch.setattr(pde_engine, "_axis_factor", changed)
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["mc"]["n_paths"] = 500
        rc = main(["validate", "--config", write_config(tmp_path, doc)])
        return rc, capsys.readouterr().out

    def test_perturbed_operator_row_fails_complementarity(self, tmp_path, monkeypatch,
                                                          capsys):
        def perturb(spec):
            # The first interior row's pinned neighbour loses 1e-3 of weight.
            pinned = np.zeros(int(spec.interior_mask.sum()))
            pinned[0] = 1e-3
            return np.zeros_like(pinned), pinned

        rc, out = self._validate_with_operator(tmp_path, monkeypatch, capsys, perturb)
        assert rc == 1
        # Horizon 1 times the row-sum defect 1e-3.
        assert "FAIL complementarity: 1.000e-03" in out

    def test_broken_closure_fails_complementarity(self, tmp_path, monkeypatch, capsys):
        # A Dirichlet-0 closure: the interior node on the upper box face loses
        # its folded-in outward neighbour (upwind drift plus diffusion weight),
        # as if that neighbour were pinned to 0 instead of mirroring the face.
        def dirichlet_zero(spec):
            base = np.flatnonzero(spec.interior_mask.ravel())
            face = base == spec.interior_mask.size - 1
            h = spec.grid.spacing[0]
            weight = (np.maximum(spec.convection.ravel(), 0.0) / h
                      + 0.5 * spec.Sigma[0, 0] / h ** 2)[base]
            return np.where(face, weight, 0.0), np.zeros(base.size)

        rc, out = self._validate_with_operator(tmp_path, monkeypatch, capsys,
                                               dirichlet_zero)
        assert rc == 1
        assert "FAIL complementarity: 1.000e+00" in out

    def test_coarse_grid_flagged_exit_1(self, tmp_path, capsys):
        with open(CONFIG_DIR / "drifted_bm_exit.json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["numerics"]["cells"] = [20]
        doc["numerics"]["dt"] = 0.02
        doc["mc"]["n_paths"] = 5000
        doc["output"]["dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL analytic_ks" in out
        assert "PASS monotonicity" in out

    def test_artifact_self_comparison_is_zero(self, tmp_path):
        out = str(tmp_path / "out")
        doc = small_bm_doc(out)
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        assert main(["mc", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        pde_art = str(Path(out) / f"exit_cdf_{cfg.hash}.json")
        # Compare the PDE artifact against itself through the empirical
        # loader interface: distances must be exactly zero.
        doc2 = dict(doc)
        doc2["validation"] = {"pde_artifact": pde_art, "mc_artifact": pde_art}
        path2 = write_config(tmp_path, doc2, name="cmp.json")
        assert main(["validate", "--config", path2]) == 0
        cfg2 = ExperimentConfig.from_file(path2)
        report = json.loads(
            (tmp_path / "out" / f"validation_{cfg2.hash}.json").read_text())
        assert report["checks"][0]["value"] == 0.0

    def test_artifact_mode_compares_event_cdfs(self, tmp_path):
        # An invariance_ccdf result is the survival function of the exit
        # time: against mc_exit_cdf it reads what solve mode reads.
        out = tmp_path / "out"
        doc = small_bm_doc(str(out), kind="invariance_ccdf")
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        assert main(["mc", "--config", path]) == 0
        assert main(["validate", "--config", path]) in (0, 1)
        tag = ExperimentConfig.from_file(path).hash
        solved = json.loads((out / f"validation_{tag}.json").read_text())["checks"][0]
        doc["validation"] = {"pde_artifact": str(out / f"invariance_ccdf_{tag}.json"),
                             "mc_artifact": str(out / f"mc_exit_cdf_{tag}.json")}
        path2 = write_config(tmp_path, doc, name="cmp.json")
        assert main(["validate", "--config", path2]) in (0, 1)
        report = json.loads(
            (out / f"validation_{ExperimentConfig.from_file(path2).hash}.json").read_text())
        assert solved["name"] == report["checks"][0]["name"] == "mc_ks"
        assert report["checks"][0]["value"] == pytest.approx(solved["value"], abs=1e-12)
        # The band comes from the live ensemble in one mode and from the MC
        # artifact's dkw_band in the other.
        assert report["checks"][0]["band"] == solved["band"]
        assert report["checks"][0]["value"] < 0.05

    @pytest.mark.parametrize("pde, mc, key", [
        ("exit_cdf", "mc_entry_cdf", "validation.mc_artifact"),
        ("mc_min_ccdf", "mc_exit_cdf", "validation.pde_artifact"),
    ])
    def test_artifact_of_another_kind_exits_2(self, tmp_path, capsys, pde, mc, key):
        out = tmp_path / "out"
        doc = small_bm_doc(str(out))
        doc["mc"]["n_paths"] = 500
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        tag = ExperimentConfig.from_file(path).hash
        # mc writes the curve of its query kind's passage: an entry curve
        # comes from an entry-kind run.
        mc_doc = json.loads(json.dumps(doc))
        mc_doc["query"]["kind"] = "entry_cdf" if mc == "mc_entry_cdf" else "exit_cdf"
        mc_path = write_config(tmp_path, mc_doc, name="mc.json")
        assert main(["mc", "--config", mc_path]) == 0
        mc_tag = ExperimentConfig.from_file(mc_path).hash
        doc["validation"] = {"pde_artifact": str(out / f"{pde}_{tag}.json"),
                             "mc_artifact": str(out / f"{mc}_{mc_tag}.json")}
        capsys.readouterr()
        assert main(["validate", "--config", write_config(tmp_path, doc, name="cmp.json")]) == 2
        assert f"(at config key '{key}')" in capsys.readouterr().err

    def test_missing_artifact_exits_2(self, tmp_path):
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["validation"] = {"pde_artifact": "/nope.json", "mc_artifact": "/nope2.json"}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2

    def test_truncated_artifact_exits_2(self, tmp_path, capsys):
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"kind": "exit_cdf", "times": [0.0, 0.5')
        doc = small_bm_doc(str(tmp_path / "out"))
        doc["validation"] = {"pde_artifact": str(truncated), "mc_artifact": str(truncated)}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestReportCommand:
    def test_curve_and_manifest(self, tmp_path):
        out = str(tmp_path / "out")
        doc = small_bm_doc(out)
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        assert main(["report", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        curve = (Path(out) / f"report_curve_exit_cdf_{cfg.hash}.csv").read_text()
        lines = curve.strip().split("\n")
        assert lines[0] == "x1,t,value"
        ts = [float(r.split(",")[1]) for r in lines[1:]]
        assert ts == sorted(ts)
        manifest = json.loads(
            (Path(out) / f"manifest_report_{cfg.hash}.json").read_text())
        assert manifest["config_hash"] == cfg.hash
        assert any("report_curve" in f for f in manifest["files"])

    def test_heatmap_rows_per_node(self, tmp_path):
        out = str(tmp_path / "out")
        doc = {
            "example": "double_integrator",
            "query": {"kind": "exit_cdf", "states": [[0.0, 0.0]], "horizon": 0.05,
                      "times": {"start": 0.0, "stop": 0.05, "num": 6}},
            "numerics": {"box_lo": [-1.05, -1.05], "box_hi": [1.05, 1.05],
                         "cells": [24, 25], "dt": 0.005},
            "output": {"dir": out},
        }
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        assert main(["report", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        heat_path = Path(out) / f"report_heatmap_exit_cdf_{cfg.hash}.csv"
        heat = heat_path.read_text()
        lines = heat.strip().split("\n")
        assert lines[0] == "x1,x2,value"
        # One row per padded-grid node.
        assert len(lines) - 1 == (24 + 3) * (25 + 3)
        # The same bytes as the snapshot export on the solve's own grid.
        diag = json.loads((Path(out) / f"exit_cdf_{cfg.hash}.json").read_text())["diagnostics"]
        fields = json.loads((Path(out) / f"exit_cdf_{cfg.hash}_fields.json").read_text())
        grid = GridSpec(diag["solve_box_lo"], diag["solve_box_hi"], diag["solve_cells"])
        expected = tmp_path / "expected.csv"
        export_snapshot_csv(grid, fields["snapshots"][-1]["values"], expected)
        assert heat_path.read_bytes() == expected.read_bytes()

    def test_report_on_short_fields_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = small_bm_doc(str(out), horizon=0.1)
        doc["numerics"].update(cells=[40], dt=0.01)
        path = write_config(tmp_path, doc)
        assert main(["solve", "--config", path]) == 0
        cfg = ExperimentConfig.from_file(path)
        fields_path = out / f"exit_cdf_{cfg.hash}_fields.json"
        fields = json.loads(fields_path.read_text())
        del fields["snapshots"][0]["values"][5:]
        fields_path.write_text(json.dumps(fields))
        assert main(["report", "--config", path]) == 2
        assert "malformed layout" in capsys.readouterr().err

    def test_report_without_solve_exits_2(self, tmp_path):
        doc = small_bm_doc(str(tmp_path / "empty"))
        path = write_config(tmp_path, doc)
        assert main(["report", "--config", path]) == 2

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "exit_cdf", "states": [[1.0', "not valid JSON"),
        ('{"kind": "exit_cdf", "times": [0.0]}', "malformed layout"),
    ], ids=["truncated", "no_states"])
    def test_report_on_bad_result_exits_2(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_bm_doc(str(out)))
        cfg = ExperimentConfig.from_file(path)
        out.mkdir()
        (out / f"exit_cdf_{cfg.hash}.json").write_text(text)
        assert main(["report", "--config", path]) == 2
        assert message in capsys.readouterr().err
