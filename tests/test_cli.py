"""Command-line interface: exit codes, determinism, config validation, output."""

import argparse
import json
import subprocess
import sys

import pytest

from hypoguard.cli import _emit, main

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
