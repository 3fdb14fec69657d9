"""Command-line interface: exit codes, determinism, config validation, output."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoguard import (
    HypoParams,
    bernstein_from_hypo,
    builtin_observable,
    builtin_target,
    confidence_radius,
    optimal_eps,
)
from hypoguard.cli import _PERTURBATIONS, _SAMPLERS, _emit, main
from hypoguard.validation import ExperimentConfig

BASE_CONFIG = {
    "hypo": {"lambda_p": 1.0, "lambda_q": 0.5, "R0": 1.0, "eps": "auto"},
    "target": {"name": "gaussian_iso", "dim": 1, "h": 1.0, "beta": 1.0},
    "observable": {"name": "cos", "omega": 1.0},
    "sampler": {"name": "zigzag", "refresh_rate": 1.0},
    "T": 150.0,
    "delta": 0.1,
    "replicas": 40,
    "seed": 42,
}


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "hypoguard", *args],
        capture_output=True, text=True, **kw,
    )


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(BASE_CONFIG))
    return str(p)


def test_constants_output(config_path):
    res = run_cli("constants", "--config", config_path)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["schema_version"] == 1
    assert payload["seed"] == 42
    assert payload["Lambda"] > 0
    assert payload["v"] > 0 and payload["b"] > 0
    assert payload["config"]["T"] == 150.0


def test_constants_explicit_eps(config_path, tmp_path):
    cfg = dict(BASE_CONFIG, hypo=dict(BASE_CONFIG["hypo"], eps=0.3))
    p = tmp_path / "c2.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("constants", "--config", str(p))
    assert res.returncode == 0
    assert json.loads(res.stdout)["eps"] == 0.3


def test_ci_output(config_path):
    res = run_cli("ci", "--config", config_path)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["report"]["r_plus"] > 0
    assert payload["report"]["r_minus"] > 0
    assert payload["vacuous"] is False


def test_ci_report_is_the_radii_and_their_inputs(tmp_path, capsys):
    assert run_inprocess(["ci"], BASE_CONFIG, tmp_path) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert set(report) == {"T", "delta", "N", "r_minus", "r_plus",
                           "v_minus", "b_minus", "v_plus", "b_plus"}
    hypo = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=1.0, eps=optimal_eps(0.5, 1.0, 1.0))
    stats = builtin_observable("cos", builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0),
                               omega=1.0).stats
    pair, N, _ = bernstein_from_hypo(hypo, stats)
    assert (report["r_minus"], report["r_plus"]) == confidence_radius(pair, pair, N, 0.1, 150.0)
    assert (report["T"], report["delta"], report["N"]) == (150.0, 0.1, N)
    assert report["v_minus"] == report["v_plus"] == pair.v
    assert report["b_minus"] == report["b_plus"] == pair.b


def test_clipped_coord_mgf_report_is_json(tmp_path, capsys):
    # the observable's variance was once a NumPy scalar, which made each mgf
    # row's "passed" a NumPy bool, which json cannot encode
    cfg = dict(BASE_CONFIG, observable={"name": "clipped_coord", "L": 1.0}, replicas=10, T=20.0)
    run_inprocess(["validate", "mgf"], cfg, tmp_path)
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["kind"] == "mgf"
    assert all(isinstance(row["passed"], bool) for row in report["details"]["grid"])


def test_byte_identical_reruns(config_path):
    for sub in (["constants"], ["ci"], ["validate", "coverage"], ["lab", "eigen"]):
        a = run_cli(*sub, "--config", config_path)
        b = run_cli(*sub, "--config", config_path)
        assert a.returncode == b.returncode
        assert a.stdout == b.stdout, f"non-deterministic output for {sub}"


def test_seed_override_changes_output(config_path):
    a = run_cli("sample", "--config", config_path, "--seed", "1")
    b = run_cli("sample", "--config", config_path, "--seed", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout != b.stdout


def test_missing_field_exits_2(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["hypo"]["R0"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("constants", "--config", str(p))
    assert res.returncode == 2
    assert "hypo.R0" in res.stderr


def test_inadmissible_eps_exits_2(tmp_path):
    cfg = dict(BASE_CONFIG, hypo={"lambda_p": 0.5, "lambda_q": 1.0,
                                  "R0": 0.0, "eps": 0.9})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("constants", "--config", str(p))
    assert res.returncode == 2


def test_validate_coverage_exit_codes(config_path, tmp_path):
    res = run_cli("validate", "coverage", "--config", config_path)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["report"]["passed"]

    cfg = dict(BASE_CONFIG, sampler={"name": "bps", "refresh_rate": 1.0,
                                     "reflection_factor": 1.0})
    p = tmp_path / "fault.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("validate", "coverage", "--config", str(p))
    assert res.returncode == 1
    assert not json.loads(res.stdout)["report"]["passed"]


def test_sample_csv(config_path, tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli("sample", "--config", config_path,
                  "--out", str(out), "--format", "csv")
    assert res.returncode == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0].startswith("t,")
    assert len(rows) > 10
    float(rows[1].split(",")[1])  # numeric payload


def test_sample_csv_without_out_exits_2(tmp_path, capsys):
    assert run_inprocess(["sample", "--format", "csv"], BASE_CONFIG, tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--format csv requires --out PATH" in err


def test_lab_subcommands(config_path):
    for sub in ("perturb", "eigen"):
        res = run_cli("lab", sub, "--seed", "3")
        assert res.returncode == 0
        assert json.loads(res.stdout)["report"]["passed"]


def test_validate_uq(config_path, tmp_path):
    cfg = dict(BASE_CONFIG, sampler={"name": "langevin", "gamma": 1.0},
               perturbation={"kind": "linear_tilt", "delta": 0.1})
    p = tmp_path / "uq.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("validate", "uq", "--config", str(p))
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["passed"]


def test_uq_tilt_beyond_the_float_range_exits_2(tmp_path):
    # at delta = 38, exp(-beta V) of the tilted Gaussian overflows near q = -40,
    # inside the quadrature interval [-40, 40]
    cfg = edited(SMALL, {"sampler": {"name": "langevin", "gamma": 2.0, "step": 0.05},
                         "perturbation": {"kind": "linear_tilt", "delta": 38.0}})
    code, err = run_config(["validate", "uq"], cfg, tmp_path / "cfg.json")
    assert code == 2 and err.startswith("config error: invalid perturbation"), err
    assert "exceeds the float range" in err, err


def test_uq_alternative_wider_than_the_quadrature_range_exits_2(tmp_path):
    # N(-10, 1e4) has mass beyond [-40, 40]: quadrature there gave alt_mean -0.522
    # against an exact -9.99993
    cfg = edited(BASE_CONFIG, {"target.h": 1e-4, "observable": {"name": "clipped_coord", "L": 50},
                               "perturbation": {"kind": "linear_tilt", "delta": 0.001}})
    code, err = run_config(["validate", "uq"], cfg, tmp_path / "cfg.json")
    assert code == 2 and err.startswith("config error: invalid perturbation: target "
                                        "'gaussian_iso+tilt(0.001)': nu* has mass beyond"), err


def test_uq_langevin_scale_on_a_stiff_gaussian_gets_its_entropy_rate(tmp_path):
    # N(0, 1/50) against the 1.01-scaled alternative: QUADPACK from one panel
    # on [-40, 40] saw none of the mass, reported rate 0 and bound 0, and exit 1
    h, factor, gamma = 50.0, 1.01, 1.0
    cfg = edited(SMALL, {"target.h": h, "sampler": {"name": "langevin", "gamma": gamma},
                         "perturbation": {"kind": "scale", "factor": factor}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["validate", "uq", "--config", str(path)])
    details = json.loads(stdout.getvalue())["report"]["details"]
    assert code == 0, details
    exact = (factor - 1.0) ** 2 * h / (4.0 * gamma * factor)
    assert details["entropy_rate"] == pytest.approx(exact, rel=1e-12)
    assert details["bias"] <= details["bound"]


def test_cli_import_loads_no_scipy():
    # importing the CLI loads no scipy (nor NumPy, tests/test_imports.py), and
    # no command loads it (test_every_command_runs_where_scipy_cannot_be_imported)
    code = "import sys, hypoguard.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_unknown_subcommand_fails():
    res = run_cli("frobnicate")
    assert res.returncode != 0


def run_inprocess(argv, cfg, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return main([*argv, "--config", str(p)])


@pytest.mark.parametrize("command,sampler,field,value", [
    ("validate", "zigzag", "T", -5.0),
    ("ci", "zigzag", "T", 0.0),
    ("validate", "zigzag", "delta", 1.5),
    ("ci", "zigzag", "delta", 0.0),
    ("validate", "langevin", "gamma", 0.0),
    ("validate", "langevin", "step", -0.01),
    ("validate", "zigzag", "refresh_rate", -1.0),
    ("validate", "hhmc", "refresh_rate", 0.0),
    ("validate", "bps", "mass", 0.0),
    ("validate", "zigzag", "T", "long"),
])
def test_out_of_range_value_exits_2(tmp_path, capsys, command, sampler, field, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["sampler"]["name"] = sampler
    if field in ("T", "delta"):
        cfg[field] = value
    else:
        cfg["sampler"][field] = value
        field = f"sampler.{field}"
    argv = ["validate", "coverage"] if command == "validate" else [command]
    assert run_inprocess(argv, cfg, tmp_path) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


def test_single_replica_rejected_and_output_strict_json(tmp_path, capsys):
    for replicas in (1, float("inf")):
        cfg = dict(BASE_CONFIG, replicas=replicas)
        assert run_inprocess(["validate", "coverage"], cfg, tmp_path) == 2
        assert "config field 'replicas'" in capsys.readouterr().err
    with pytest.raises(ValueError):
        _emit({"std_error": float("nan")}, argparse.Namespace(out=None))


@pytest.mark.parametrize("argv", [["ci", "--threads", "2"], ["ci", "--format", "csv"],
                                  ["validate", "coverage", "--format", "json"]])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# malformed configs: exit 2 with the field or its block named, no traceback

SMALL = dict(BASE_CONFIG, T=20.0, replicas=10)
DELETE = object()
OVERFLOW = "<1e999>"  # written as the bare token 1e999, which Python reads as inf
GAUSSIAN_START = {"kind": "gaussian", "mean": 0.5, "var": 0.5}
TILT = {"perturbation": {"kind": "linear_tilt", "delta": 0.1}}


def edited(cfg, edits):
    """A deep copy of ``cfg`` with each dotted path set to its value or deleted."""
    cfg = json.loads(json.dumps(cfg))
    for path, value in edits.items():
        *parents, leaf = path.split(".")
        node = cfg
        for key in parents:
            node = node.setdefault(key, {})
        if value is DELETE:
            del node[leaf]
        else:
            node[leaf] = value
    return cfg


def run_config(argv, cfg, config_path, env=None):
    """Exit code and stderr of an in-process ``main`` call on ``cfg``."""
    config_path.write_text(json.dumps(cfg).replace(json.dumps(OVERFLOW), "1e999"))
    stderr = io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--config", str(config_path)])
    return code, stderr.getvalue()


def test_config_root_that_is_not_an_object_exits_2(tmp_path):
    assert run_config(["ci"], [], tmp_path / "cfg.json") == (
        2, "config error: config root must be a JSON object\n")


def names_field(err, path):
    """Whether a config-error message names the dotted field or its block."""
    block = path.split(".")[0]
    return err.startswith("config error:") and (f"'{path}'" in err or f"invalid {block}:" in err)


@pytest.mark.parametrize("argv,edits,env,named", [
    pytest.param(["ci"], {"T": math.inf}, {}, "T", id="ci-T-Infinity"),
    pytest.param(["ci"], {"T": OVERFLOW}, {}, "T", id="ci-T-1e999"),
    pytest.param(["ci"], {"note": math.nan}, {}, "note", id="ci-unread-NaN"),
    pytest.param(["sample"], {"T": math.inf}, {}, "T", id="sample-T-Infinity"),
    pytest.param(["sample"], {"T": OVERFLOW}, {}, "T", id="sample-T-1e999"),
    pytest.param(["sample"], {"note": math.nan}, {}, "note", id="sample-unread-NaN"),
    pytest.param(["sample", "--format", "csv", "--out", "unused.csv"], {"note": math.nan}, {},
                 "note", id="sample-csv-unread-NaN"),
    pytest.param(["sample"], {"initial": {"kind": "gaussian", "mean": 0.5}}, {}, "initial.var",
                 id="initial-partial"),
    pytest.param(["sample"], {"initial": 5}, {}, "initial", id="initial-not-object"),
    pytest.param(["sample"], {"initial": dict(GAUSSIAN_START, var=0.0)}, {}, "initial.var",
                 id="initial-var-zero"),
    pytest.param(["validate", "coverage"], {"initial": dict(GAUSSIAN_START, var=2.0)}, {},
                 "initial", id="initial-var-diverges"),
    *[pytest.param(argv, {"initial": dict(GAUSSIAN_START, mean=1000.0)}, {}, "initial",
                   id=f"{argv[-1]}-initial-norm-overflows")
      for argv in (["ci"], ["validate", "coverage"])],
    pytest.param(["sample"], {"initial": GAUSSIAN_START, "target.dim": 2}, {}, "initial",
                 id="initial-2d"),
    pytest.param(["constants"], {"hypo.lambda_q": DELETE, "hypo.lambda_q_from": {"C_nu": 1.0}},
                 {}, "hypo.lambda_q_from.kappa_p", id="lambda_q_from-partial"),
    pytest.param(["constants"], {"hypo.lambda_p": "abc"}, {}, "hypo.lambda_p", id="lambda_p-abc"),
    pytest.param(["constants"], {"hypo.eps": "abc"}, {}, "hypo.eps", id="eps-abc"),
    pytest.param(["constants"], {"hypo.lambda_p": 0.0}, {}, "hypo.lambda_p", id="lambda_p-0-auto"),
    pytest.param(["ci"], {"hypo.lambda_p": 0.0, "hypo.eps": 0.3}, {}, "hypo.lambda_p",
                 id="lambda_p-0-eps"),
    pytest.param(["constants"], {"hypo.lambda_q": 0.0}, {}, "hypo.lambda_q", id="lambda_q-0-auto"),
    pytest.param(["ci"], {"hypo.lambda_q": 1.5, "hypo.eps": 0.3}, {}, "hypo.lambda_q",
                 id="lambda_q-above-1-eps"),
    pytest.param(["constants"], {"hypo.R0": -1.0}, {}, "hypo.R0", id="R0-negative-auto"),
    pytest.param(["ci"], {"hypo.R0": -1.0, "hypo.eps": 0.3}, {}, "hypo.R0",
                 id="R0-negative-eps"),
    pytest.param(["constants", "--eps", "abc"], {}, {}, "--eps", id="eps-flag-abc"),
    pytest.param(["constants"], {"dmu_norm": 0.5}, {}, "dmu_norm", id="dmu_norm-below-1"),
    pytest.param(["ci"], {"observable_stats": {"variance": 4.0, "sup_norm": 1.0}}, {},
                 "observable_stats", id="stats-variance-above-sup2"),
    pytest.param(["ci"], {"seed": "abc"}, {}, "seed", id="seed-abc"),
    pytest.param(["ci"], {"seed": DELETE}, {"HYPOGUARD_SEED": "abc"}, "HYPOGUARD_SEED",
                 id="env-seed-abc"),
    pytest.param(["sample", "--seed", "-1"], {}, {}, "--seed", id="seed-flag-negative"),
    pytest.param(["ci"], {"seed": 42.5}, {}, "seed", id="seed-fractional"),
    pytest.param(["validate", "coverage"], {"replicas": 10.5}, {}, "replicas",
                 id="replicas-fractional"),
    pytest.param(["lab", "perturb"], {"trials": 0}, {}, "trials", id="lab-trials-0"),
    pytest.param(["lab", "perturb"], {"dim": "x"}, {}, "dim", id="lab-dim-x"),
    pytest.param(["sample"], {"sampler": "zigzag"}, {}, "sampler", id="sampler-not-object"),
    pytest.param(["sample"], {"target": "gaussian_iso"}, {}, "target", id="target-not-object"),
    pytest.param(["validate", "uq"], {"perturbation": {"kind": "linear_tilt"}}, {},
                 "perturbation.delta", id="perturbation-no-delta"),
    pytest.param(["validate", "uq"], {"perturbation": {"kind": "scale", "factor": -1}}, {},
                 "perturbation", id="perturbation-factor-negative"),
    pytest.param(["validate", "tail"], {"r_grid": "abc"}, {}, "r_grid", id="r_grid-abc"),
    pytest.param(["validate", "tail"], {"r_grid": [-1]}, {}, "r_grid", id="r_grid-negative"),
    pytest.param(["validate", "mgf"], {"lambda_grid": [100]}, {}, "lambda_grid",
                 id="lambda_grid-above-1/b"),
    pytest.param(["validate", "coverage"], {"sampler.reflection_factor": "x"}, {},
                 "sampler.reflection_factor", id="reflection_factor-x"),
    pytest.param(["validate", "uq"], {"sampler.name": "hhmc", **TILT}, {}, "sampler.name",
                 id="uq-hhmc"),
    pytest.param(["validate", "uq"], {"target.dim": 2, **TILT}, {}, "perturbation",
                 id="uq-2d-tilt"),
    pytest.param(["validate", "uq"], {"target.dim": 2, "perturbation": {"kind": "scale",
                                                                       "factor": 1.5}},
                 {}, "perturbation", id="uq-2d-scale"),
    pytest.param(["sample"], {"observable.coord": 3}, {}, "observable", id="coord-out-of-range"),
    pytest.param(["ci"], {"observable.omgea": 2.0}, {}, "observable", id="misspelt-parameter"),
    pytest.param(["sample"], {"target.dim": 1.5}, {}, "target", id="target-dim-fractional"),
    pytest.param(["sample"], {"initial": {"mean": 3.0, "var": 0.1}}, {}, "initial.kind",
                 id="initial-no-kind"),
    pytest.param(["sample"], {"initial": {"kind": "stationary", "mean": 3.0}}, {},
                 "initial.kind", id="initial-stationary-with-mean"),
    # misspelt keys, formerly ignored in favour of the default of the meant key
    pytest.param(["sample"], {"sampler.refresh_rat": 5.0}, {}, "sampler.refresh_rat",
                 id="unknown-sampler-key"),
    pytest.param(["ci"], {"hypo.lambdap": 1.0}, {}, "hypo.lambdap", id="unknown-hypo-key"),
    pytest.param(["constants"], {"hypo.lambda_q": DELETE,
                                 "hypo.lambda_q_from": {"C_nu": 1.0, "kappa_p": 1.0, "k": 2}},
                 {}, "hypo.lambda_q_from.k", id="unknown-lambda_q_from-key"),
    pytest.param(["sample"], {"initial": dict(GAUSSIAN_START, variance=0.2)}, {},
                 "initial.variance", id="unknown-initial-key"),
    pytest.param(["validate", "uq"], {"perturbation": {"kind": "linear_tilt", "delta": 0.1,
                                                       "factr": 2.0}}, {},
                 "perturbation.factr", id="unknown-perturbation-key"),
    pytest.param(["ci"], {"observable_stats": {"variance": 0.2, "sup_norm": 1.0, "maen": 0.3}},
                 {}, "observable_stats.maen", id="unknown-observable_stats-key"),
    pytest.param(["ci"], {"replica": 20}, {}, "replica", id="unknown-top-level-key"),
    pytest.param(["validate", "all"], {"r_grid": [-1]}, {}, "r_grid", id="all-r_grid-negative"),
    pytest.param(["validate", "all"], {"lambda_grid": [100]}, {}, "lambda_grid",
                 id="all-lambda_grid-above-1/b"),
    pytest.param(["validate", "mgf"], {"lambda_grid": [-0.001]}, {}, "lambda_grid",
                 id="lambda_grid-negative"),
    pytest.param(["validate", "all"], {"lambda_grid": [-0.001]}, {}, "lambda_grid",
                 id="all-lambda_grid-negative"),
    # ||dmu/dmu*|| has one source: dmu_norm (ci and constants only) or initial; the
    # statistics too: observable_stats (ci and constants only) or the observable
    pytest.param(["ci"], {"initial": GAUSSIAN_START, "dmu_norm": 1.5}, {}, "dmu_norm",
                 id="ci-dmu_norm-with-initial"),
    pytest.param(["constants"], {"initial": {"kind": "stationary"}, "dmu_norm": 1.5}, {},
                 "dmu_norm", id="constants-dmu_norm-with-initial"),
    *[pytest.param(argv, {key: value}, {}, key, id=f"{argv[-1]}-{key}")
      for argv in (["sample"], ["validate", "coverage"], ["validate", "tail"],
                   ["validate", "mgf"], ["validate", "all"], ["validate", "uq"])
      for key, value in (("dmu_norm", 1.0),
                         ("observable_stats", {"variance": 0.2, "sup_norm": 1.0}))],
])
def test_malformed_config_exits_2(tmp_path, argv, edits, env, named):
    code, err = run_config(argv, edited(SMALL, edits), tmp_path / "cfg.json", env)
    assert code == 2
    assert names_field(err, named), err


@pytest.mark.parametrize("edits", [{"target.dim": 2}, {"initial.var": 2.0},
                                   {"initial.mean": 1000.0}],
                         ids=["2d", "var-diverges", "norm-overflows"])
def test_a_bad_start_is_one_error_in_every_command(tmp_path, edits):
    # ci and constants take the norm from catalog's law, validate from the model
    cfg = edited(dict(SMALL, initial=GAUSSIAN_START), edits)
    errors = {run_config(argv, cfg, tmp_path / "cfg.json")
              for argv in (["ci"], ["constants"], ["validate", "coverage"])}
    assert len(errors) == 1, errors
    code, err = errors.pop()
    assert code == 2 and names_field(err, "initial"), err


def test_config_nested_too_deep_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"note": ' + "[" * 3000 + "]" * 3000 + "}")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(["ci", "--config", str(path)]) == 2
    assert stderr.getvalue().startswith(f"config error: cannot read config file {path}:")


@pytest.mark.parametrize("argv", [
    ["ci", "--out", "{missing}/x.json"],
    ["validate", "coverage", "--out", "{missing}/x.json"],
    ["sample", "--format", "csv", "--out", "{directory}"],
], ids=["ci-missing-directory", "validate-missing-directory", "sample-csv-directory"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, argv):
    argv = [arg.format(missing=tmp_path / "missing", directory=tmp_path) for arg in argv]
    with mock.patch("hypoguard.validation.run_replicas", side_effect=AssertionError), \
            mock.patch("hypoguard.validation._simulate", side_effect=AssertionError):
        code, err = run_config(argv, SMALL, tmp_path / "cfg.json")
    assert code == 2 and err.startswith("config error: --out "), err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv,path,value,named", [
    (["ci"], "T", True, "config field 'T'"),
    (["constants"], "hypo.R0", False, "config field 'hypo.R0'"),
    (["constants"], "hypo.eps", True, "config field 'hypo.eps'"),
    (["ci"], "seed", True, "config field 'seed'"),
    (["ci"], "target.h", True, "invalid target: target parameter h"),
    (["constants"], "target.dim", True, "invalid target: target parameter dim"),
    (["ci"], "observable.omega", True, "invalid observable: observable parameter omega"),
    (["sample"], "sampler.refresh_rate", True, "config field 'sampler.refresh_rate'"),
    (["validate", "tail"], "r_grid", [0.1, True], "config field 'r_grid'"),
    (["lab", "eigen"], "trials", True, "config field 'trials'"),
    # nor is a JSON string that spells a number
    *[(argv, path, value, named) for argv in (["ci"], ["sample"]) for path, value, named in [
        ("T", "20", "config field 'T'"),
        ("delta", "0.1", "config field 'delta'"),
        ("hypo.eps", "0.3", "config field 'hypo.eps'"),
        ("target.h", "1.0", "invalid target: target parameter h"),
        ("observable.omega", "1.0", "invalid observable: observable parameter omega")]],
    (["sample"], "replicas", "10", "config field 'replicas'"),
    (["sample"], "sampler.refresh_rate", "1.0", "config field 'sampler.refresh_rate'"),
    (["lab", "eigen"], "trials", "5", "config field 'trials'"),
    (["validate", "tail"], "r_grid", [0.1, "0.5"], "config field 'r_grid'"),
])
def test_json_booleans_are_not_numbers(tmp_path, argv, path, value, named):
    # JSON true is not the number 1, nor "1.0" the number 1.0: a number the
    # CLI reads rejects both
    code, err = run_config(argv, edited(SMALL, {path: value}), tmp_path / "cfg.json")
    assert code == 2 and named in err, err


@pytest.mark.parametrize("path,value", [("hypo.lambda_p", 0.0), ("hypo.lambda_p", -1.0),
                                        ("hypo.lambda_q", 0.0), ("hypo.R0", -1.0)])
def test_bad_hypo_constant_is_one_config_error(tmp_path, path, value):
    # the same message whether eps is derived ("auto") or given
    errors = {run_config(["constants"], edited(SMALL, {path: value, "hypo.eps": eps}),
                         tmp_path / "cfg.json") for eps in ("auto", 0.3)}
    assert len(errors) == 1, errors
    code, err = errors.pop()
    assert code == 2 and err.startswith(f"config error: config field '{path}' must be"), err


@pytest.mark.parametrize("cfg,code", [
    (dict(BASE_CONFIG, r_grid=[0.1, 0.5], lambda_grid=[0.0, 0.01]), 0),
    (dict(BASE_CONFIG, sampler={"name": "bps", "refresh_rate": 1.0, "reflection_factor": 1.0}),
     1),
], ids=["passing", "faulty-bps"])
def test_validate_all_equals_separate_checks(tmp_path, capsys, cfg, code):
    assert run_inprocess(["validate", "all"], cfg, tmp_path) == code
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert sorted(reports) == ["coverage", "mgf", "tail"]
    for kind, report in reports.items():
        assert run_inprocess(["validate", kind], cfg, tmp_path) == (0 if report["passed"] else 1)
        assert json.loads(capsys.readouterr().out)["report"] == report


def test_validate_all_reads_every_grid_before_simulating(tmp_path):
    with mock.patch("hypoguard.validation.run_replicas", side_effect=AssertionError):
        assert run_inprocess(["validate", "all"], dict(SMALL, lambda_grid=[100.0]), tmp_path) == 2


def test_validate_all_computes_the_start_norm_once(tmp_path, capsys):
    # the config check, the lambda_grid rule and the three checks share it
    from hypoguard import catalog

    with mock.patch.object(catalog, "gaussian_chi_square_norm",
                           wraps=catalog.gaussian_chi_square_norm) as norm:
        code = run_inprocess(["validate", "all"], dict(SMALL, initial=GAUSSIAN_START,
                                                       lambda_grid=[0.0, 0.01]), tmp_path)
    assert code in (0, 1)
    assert sorted(json.loads(capsys.readouterr().out)["reports"]) == ["coverage", "mgf", "tail"]
    assert norm.call_count == 1


# the sampler knobs and their defaults, which ExperimentConfig alone holds
KNOB_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                 if f.default is not dataclasses.MISSING and f.name != "initial"}
# One valid config per subcommand, and the leaves it reads that have no
# default (deleting any other leaf leaves the config valid).
VALID = {
    "constants": (["constants"], {key: SMALL[key] for key in ("hypo", "target", "observable",
                                                              "seed")} | {"dmu_norm": 1.0},
                  {"hypo.lambda_p", "hypo.lambda_q", "hypo.R0", "hypo.eps", "target.name",
                   "observable.name"}),
    "ci": (["ci"], {"hypo": SMALL["hypo"], "T": 20.0, "delta": 0.1, "seed": 1, "dmu_norm": 1.0,
                    "observable_stats": {"mean": 0.1, "variance": 0.2, "sup_norm": 0.9}},
           {"hypo.lambda_p", "hypo.lambda_q", "hypo.R0", "hypo.eps", "T", "delta",
            "observable_stats.variance", "observable_stats.sup_norm"}),
    # one sample config per sampler, with every knob it reads
    **{f"sample {name}": (["sample"], dict(SMALL, initial=GAUSSIAN_START, sampler={
        "name": name, **{knob: KNOB_DEFAULTS[knob] for knob in knobs}}),
        {"hypo.lambda_p", "hypo.lambda_q", "hypo.R0", "hypo.eps", "target.name",
         "observable.name", "sampler.name", "T", "initial.kind", "initial.mean", "initial.var"})
       for name, knobs in _SAMPLERS.items()},
    "tail": (["validate", "tail"], dict(SMALL, r_grid=[0.1, 0.5]), {"T"}),
    "mgf": (["validate", "mgf"], dict(SMALL, lambda_grid=[0.0, 0.01]), {"T"}),
    "uq": (["validate", "uq"], dict(SMALL, sampler={"name": "langevin"}, **TILT),
           {"perturbation.kind", "perturbation.delta"}),
    "perturb": (["lab", "perturb"], {"dim": 4, "trials": 5, "lambda_grid_size": 5, "seed": 3},
                set()),
    "eigen": (["lab", "eigen"], {"trials": 5, "seed": 3}, set()),
}
# values outside the rule of a leaf
OUT_OF_RULE = {
    "T": [0.0, -1.0], "delta": [0.0, 1.0], "replicas": [1, 2.5], "seed": [-1, 0.5],
    "hypo.lambda_p": [0.0, -1.0], "hypo.lambda_q": [0.0, 1.5], "hypo.R0": [-1.0],
    "hypo.eps": [0.0, 1.0], "target.dim": [0], "target.h": [0.0], "target.beta": [-1.0],
    "sampler.refresh_rate": [-1.0], "sampler.mass": [0.0], "sampler.gamma": [0.0],
    "sampler.step": [0.0], "initial.mean": [1000.0], "initial.var": [0.0, 2.0],
    "dmu_norm": [0.5],
    "observable_stats.variance": [-1.0, 4.0], "observable_stats.sup_norm": [-1.0],
    "r_grid": [[-1.0]], "lambda_grid": [[100.0], [-0.001]],
    "dim": [1, 4.5], "trials": [0, 2.5], "lambda_grid_size": [0, 2.5],
}
# letter-only strings that are valid values of some leaf
VALID_WORDS = {"auto", "cos", "sin", "indicator", "gaussian", "stationary", "zigzag", "bps",
               "hhmc", "langevin", "scale"}


def leaves(node, path=""):
    if not isinstance(node, dict):
        return [path]
    return [leaf for key, child in node.items() for leaf in leaves(child, f"{path}{key}.")]


words = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8).filter(
    lambda s: s not in VALID_WORDS)
# a number written as a JSON string is not a number
numerals = st.one_of(st.integers(-5, 50), st.floats(allow_nan=False)).map(str)


@st.composite
def invalid_mutations(draw):
    """A subcommand, one leaf of its valid config and an invalid value for it."""
    command = draw(st.sampled_from(sorted(VALID)))
    argv, cfg, required = VALID[command]
    path = draw(st.sampled_from(leaves(cfg))).rstrip(".")
    values = [st.just(None), st.booleans(), st.lists(words, min_size=1, max_size=2),
              st.dictionaries(words, st.integers(), max_size=2), words, numerals,
              st.sampled_from([math.nan, math.inf, -math.inf, OVERFLOW])]
    if path in required:
        values.append(st.just(DELETE))
    if path in OUT_OF_RULE:
        values.append(st.sampled_from(OUT_OF_RULE[path]))
    return argv, edited(cfg, {path: draw(st.one_of(values))}), path


@settings(max_examples=300)
@given(invalid_mutations())
def test_any_invalid_leaf_exits_2(mutation):
    argv, cfg, path = mutation
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_config(argv, cfg, Path(tmp) / "cfg.json")
    assert code == 2
    assert names_field(err, path), err


# ---------------------------------------------------------------------------
# any config within the field rules: ci and constants exit 0 with strict JSON, or 2


# magnitudes log-uniform over the positive doubles, subnormals included
magnitudes = st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp).filter(bool)
signed = st.one_of(magnitudes, magnitudes.map(float.__neg__), st.just(0.0))
below_1 = st.floats(math.log(5e-324), 0.0).map(math.exp).filter(lambda x: 0.0 < x < 1.0)
# each built-in observable's parameters, with their values
BUILTIN_OBSERVABLES = {"sin": {"omega": signed}, "cos": {"omega": signed},
                       "indicator": {"a": signed, "b": signed}, "clipped_coord": {"L": magnitudes}}


@st.composite
def closed_form_configs(draw):
    """A ci/constants config whose every numeric field is drawn within its
    rule: a magnitude of any size, signed where the rule allows a sign."""
    hypo = {"lambda_p": draw(magnitudes), "R0": draw(st.one_of(magnitudes, st.just(0.0))),
            "eps": draw(st.one_of(st.just("auto"), below_1))}
    if draw(st.booleans()):
        hypo["lambda_q"] = draw(st.one_of(below_1, st.just(1.0)))
    else:
        hypo["lambda_q_from"] = {"C_nu": draw(magnitudes), "kappa_p": draw(magnitudes)}
    target = draw(st.sampled_from(["gaussian_iso", "gaussian_aniso", "double_well"]))
    params = {"gaussian_iso": {"dim": st.integers(1, 3), "h": magnitudes},
              "gaussian_aniso": {"H": magnitudes.map(lambda h: [[h]])},
              "double_well": {"poincare_const": magnitudes}}[target]
    cfg = {"hypo": hypo, "T": draw(magnitudes), "delta": draw(below_1),
           "target": {"name": target, "beta": draw(magnitudes),
                      **{key: draw(value) for key, value in params.items()}}}
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(BUILTIN_OBSERVABLES)))
        cfg["observable"] = {"name": name, **{key: draw(value) for key, value
                                              in BUILTIN_OBSERVABLES[name].items()}}
    else:
        cfg["observable_stats"] = {"mean": draw(signed),
                                   "variance": draw(st.one_of(magnitudes, st.just(0.0))),
                                   "sup_norm": draw(st.one_of(magnitudes, st.just(0.0)))}
    start = draw(st.sampled_from(["stationary", "initial", "dmu_norm"]))
    if start == "initial":
        cfg["initial"] = {"kind": "gaussian", "mean": draw(signed), "var": draw(magnitudes)}
    elif start == "dmu_norm":
        cfg["dmu_norm"] = draw(st.one_of(st.just(1.0), magnitudes.map(lambda x: 1.0 + x)))
    return cfg


@settings(max_examples=400)
@given(closed_form_configs(), st.sampled_from(["ci", "constants"]))
def test_closed_form_commands_exit_0_with_strict_json_or_2(cfg, command):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_inprocess([command], cfg, Path(tmp))
    assert code in (0, 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=lambda token: pytest.fail(token))


@pytest.mark.parametrize("command, edits, message", [
    # r_plus = inf, which json.dumps(allow_nan=False) refused
    ("ci", {"T": 1e-310}, "r_minus = inf is not finite for config fields "
                          "hypo, observable, initial, T and delta"),
    # 2 N / delta overflows
    ("ci", {"dmu_norm": 1e308}, "r_minus = inf is not finite for config fields "
                                "hypo, observable, dmu_norm, T and delta"),
    # v = inf, which BernsteinPair refused with a ValueError
    *[(command, {"hypo.lambda_p": 1e-320},
       "invalid hypo, observable and initial: variance proxy v must be finite")
      for command in ("ci", "constants")],
    # ((lambda_q + 1) eps - lambda_p) ** 2 in lambda_of_eps raised OverflowError
    *[(command, {"hypo": {"lambda_p": 1e300, "lambda_q": 0.5, "R0": 0.0, "eps": 0.1}},
       "invalid hypo, observable and initial: Lambda(eps) overflows for eps = 0.1, "
       "lambda_q = 0.5, lambda_p = 1e+300 and R0 = 0.0") for command in ("ci", "constants")],
    # alpha = inf reached the JSON
    ("constants", {"hypo": {"lambda_p": 1e-310, "lambda_q": 1.0, "R0": 1.0, "eps": "auto"},
                   "observable": {"name": "clipped_coord", "L": 1e-200}},
     "alpha = inf is not finite for config fields hypo, observable and initial"),
    # after simulating every replica
    ("validate", {"T": 1e-310}, "r_minus = inf is not finite for config fields "
                                "hypo, observable, initial, T and delta"),
    # the start was drawn at q = inf, a ValueError traceback
    ("sample", {"target": {"name": "gaussian_iso", "h": 1e-308, "beta": 0.5}},
     "invalid target: the variance 1 / (beta h) overflows"),
    ("sample", {"target": {"name": "gaussian_aniso", "H": [[1e-308]], "beta": 0.5}},
     "invalid target: the largest variance 1 / (beta h_min) overflows"),
])
def test_overflow_exits_2_naming_its_fields(tmp_path, command, edits, message):
    argv = ["validate", "coverage"] if command == "validate" else [command]
    with mock.patch("hypoguard.validation.run_replicas", side_effect=AssertionError):
        code, err = run_config(argv, edited(SMALL, edits), tmp_path / "cfg.json")
    assert code == 2 and err.startswith(f"config error: {message}"), err


# ---------------------------------------------------------------------------
# every key the CLI accepts acts: it changes the output, or it exits 2


def outcome(argv, cfg, tmp_path):
    """Exit code, report (stdout without the config echo) and stderr of an
    in-process ``main`` call on ``cfg``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_inprocess(argv, cfg, tmp_path)
    report = json.loads(out.getvalue()) if out.getvalue() else {}
    report.pop("config", None)
    return code, report, err.getvalue()


@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_every_sampler_knob_acts_or_is_rejected(tmp_path, sampler):
    assert set(KNOB_DEFAULTS) == {"refresh_rate", "mass", "gamma", "step", "reflection_factor"}
    base = dict(SMALL, sampler={"name": sampler})
    code, reference, _ = outcome(["sample"], base, tmp_path)
    assert code == 0
    for knob, default in KNOB_DEFAULTS.items():
        code, report, err = outcome(["sample"], edited(base, {f"sampler.{knob}": 2 * default}),
                                    tmp_path)
        if knob in _SAMPLERS[sampler]:
            assert code == 0 and report != reference, knob
        else:
            assert code == 2 and f"config field 'sampler.{knob}'" in err, err


# two values of each perturbation key
PERTURBATION_VALUES = {"delta": (0.1, 0.2), "factor": (1.2, 1.1)}


@pytest.mark.parametrize("kind", sorted(_PERTURBATIONS))
def test_every_perturbation_key_acts_or_is_rejected(tmp_path, kind):
    assert set(PERTURBATION_VALUES) == {key for _, key in _PERTURBATIONS.values()}
    read = _PERTURBATIONS[kind][1]
    base = dict(SMALL, sampler={"name": "langevin"},
                perturbation={"kind": kind, read: PERTURBATION_VALUES[read][0]})
    reports = [outcome(["validate", "uq"], edited(base, {f"perturbation.{read}": value}),
                       tmp_path) for value in PERTURBATION_VALUES[read]]
    assert all(code in (0, 1) for code, _, _ in reports)
    assert reports[0][1] != reports[1][1]
    for key, (value, _) in PERTURBATION_VALUES.items():
        if key != read:
            code, _, err = outcome(["validate", "uq"],
                                   edited(base, {f"perturbation.{key}": value}), tmp_path)
            assert code == 2 and f"config field 'perturbation.{key}'" in err, err


def test_each_lambda_q_source_acts_and_two_are_rejected(tmp_path):
    sources = {"lambda_q": (0.5, 0.4),
               "lambda_q_from": ({"C_nu": 1.0, "kappa_p": 1.0}, {"C_nu": 2.0, "kappa_p": 1.0})}
    for key, values in sources.items():
        reports = [outcome(["constants"], edited(SMALL, {"hypo.lambda_q": DELETE,
                                                         f"hypo.{key}": value}), tmp_path)
                   for value in values]
        assert [code for code, _, _ in reports] == [0, 0]
        assert reports[0][1] != reports[1][1], key
    code, _, err = outcome(["constants"],
                           edited(SMALL, {"hypo.lambda_q_from": sources["lambda_q_from"][0]}),
                           tmp_path)
    assert code == 2 and "config field 'hypo.lambda_q_from'" in err, err


def test_ci_certifies_the_configured_start(tmp_path):
    # ci and the coverage check take ||dmu/dmu*|| from the same Gaussian start
    cfg = dict(SMALL, sampler={"name": "hhmc", "refresh_rate": 2.0, "mass": 1.5},
               initial=GAUSSIAN_START)
    code, ci, _ = outcome(["ci"], cfg, tmp_path)
    assert code == 0
    _, coverage, _ = outcome(["validate", "coverage"], cfg, tmp_path)
    details = coverage["report"]["details"]
    assert ([ci["report"][key] for key in ("N", "r_minus", "r_plus")]
            == [details[key] for key in ("N", "r_minus", "r_plus")])


def test_radius_at_or_above_the_sup_norm_is_vacuous(tmp_path):
    # |F_T - mean| <= sup_norm = 0.9 on every path, so radii of about 1.63 certify nothing
    cfg = dict(SMALL, T=80.0, dmu_norm=1.5,
               hypo={"lambda_p": 1.0, "R0": 1.0, "eps": 0.3,
                     "lambda_q_from": {"C_nu": 1.0, "kappa_p": 1.0}},
               observable_stats={"mean": 0.1, "variance": 0.2, "sup_norm": 0.9})
    code, ci, _ = outcome(["ci"], cfg, tmp_path)
    assert code == 0
    assert 0.9 <= ci["report"]["r_minus"] < 1.8 and 0.9 <= ci["report"]["r_plus"] < 1.8
    assert ci["vacuous"] is True
