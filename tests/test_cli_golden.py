"""Pin the CLI output for accepted configs: the sha256 of stdout (and of the
CSV export) of each call below must match ``data/cli_golden.json``.

The calls run small configs (T = 20, 10 replicas; one HHMC export runs
T = 150) in-process.  Regenerate
the file only for a deliberate change of the output or of the seed contract:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from hypoguard.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"

SMALL = {
    "hypo": {"lambda_p": 1.0, "lambda_q": 0.5, "R0": 1.0, "eps": "auto"},
    "target": {"name": "gaussian_iso", "dim": 1, "h": 1.0, "beta": 1.0},
    "observable": {"name": "cos", "omega": 1.0},
    "sampler": {"name": "zigzag", "refresh_rate": 1.0},
    "T": 20.0, "delta": 0.1, "replicas": 10, "seed": 42,
}
FROM_TARGET = {**SMALL, "hypo": {"lambda_p": 1.0, "R0": 1.0, "eps": 0.3,
                                 "lambda_q_from": {"C_nu": 1.0, "kappa_p": 1.0}},
               "observable_stats": {"mean": 0.1, "variance": 0.2, "sup_norm": 0.9},
               "dmu_norm": 1.5}
GAUSSIAN_START = {**SMALL, "sampler": {"name": "hhmc", "refresh_rate": 2.0, "mass": 1.5},
                  "initial": {"kind": "gaussian", "mean": 0.5, "var": 0.5}}
LANGEVIN = {**SMALL, "sampler": {"name": "langevin", "gamma": 2.0, "step": 0.05},
            "perturbation": {"kind": "linear_tilt", "delta": 0.1}}
BPS = {**SMALL, "target": {"name": "gaussian_aniso", "H": [[2.0, 0.5], [0.5, 1.0]]},
       "observable": {"name": "indicator", "a": -0.5, "b": 0.5, "coord": 1},
       "sampler": {"name": "bps", "refresh_rate": 0.5, "reflection_factor": 2.0}}
SCALE = {**SMALL, "perturbation": {"kind": "scale", "factor": 1.2}}
NO_SEED = {k: v for k, v in SMALL.items() if k != "seed"}
# about 150 flights: the duration draws cross more than two blocks
HHMC_LONG = {**SMALL, "sampler": {"name": "hhmc", "refresh_rate": 1.0}, "T": 150.0}
LAB = {"dim": 4, "trials": 20, "lambda_grid_size": 10}

# name -> (argv, config, environment)
CALLS = {
    "constants": (["constants"], SMALL, {}),
    "constants --eps": (["constants", "--eps", "0.3"], SMALL, {}),
    "constants lambda_q_from": (["constants"], FROM_TARGET, {}),
    "ci": (["ci"], SMALL, {}),
    "ci observable_stats": (["ci"], FROM_TARGET, {}),
    "ci HYPOGUARD_SEED": (["ci"], NO_SEED, {"HYPOGUARD_SEED": "5"}),
    "ci bps aniso": (["ci"], BPS, {}),
    "constants bps aniso": (["constants"], BPS, {}),
    "sample": (["sample"], SMALL, {}),
    "sample --seed": (["sample", "--seed", "7"], SMALL, {}),
    "sample csv": (["sample", "--format", "csv"], SMALL, {}),
    "sample csv hhmc": (["sample", "--format", "csv"], HHMC_LONG, {}),
    "sample csv bps aniso": (["sample", "--format", "csv"], BPS, {}),
    "sample csv langevin": (["sample", "--format", "csv"], LANGEVIN, {}),
    "sample gaussian start": (["sample"], GAUSSIAN_START, {}),
    "sample langevin": (["sample"], LANGEVIN, {}),
    "sample bps aniso": (["sample"], BPS, {}),
    "validate coverage": (["validate", "coverage"], SMALL, {}),
    "validate coverage gaussian start": (["validate", "coverage"], GAUSSIAN_START, {}),
    "validate tail": (["validate", "tail"], SMALL, {}),
    "validate tail r_grid": (["validate", "tail"], {**SMALL, "r_grid": [0.1, 0.5]}, {}),
    "validate mgf": (["validate", "mgf"], SMALL, {}),
    "validate mgf lambda_grid": (["validate", "mgf"], {**SMALL, "lambda_grid": [0.0, 0.01]}, {}),
    "validate uq": (["validate", "uq"], LANGEVIN, {}),
    "validate uq scale": (["validate", "uq"], SCALE, {}),
    "lab eigen": (["lab", "eigen"], LAB, {}),
    "lab perturb": (["lab", "perturb", "--seed", "3"], LAB, {}),
    # the default sizes, which the benchmark's fresh-process lab calls run
    "lab eigen default": (["lab", "eigen", "--seed", "7"], {}, {}),
    "lab perturb default": (["lab", "perturb", "--seed", "7"], {}, {}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(name: str) -> dict:
    argv, cfg, env = CALLS[name]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(config)]
        csv = Path(tmp) / "trajectory.csv"
        if "csv" in argv:
            argv += ["--out", str(csv)]
        stdout = io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(stdout):
            code = main(argv)
        rec = {"exit": code, "stdout": sha256(stdout.getvalue().encode())}
        if "csv" in argv:
            rec["csv"] = sha256(csv.read_bytes())
    return rec


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(autouse=True)
def no_seed_in_environment(monkeypatch):
    monkeypatch.delenv("HYPOGUARD_SEED", raising=False)


@pytest.mark.parametrize("name", CALLS)
def test_cli_output_matches_golden(golden, name):
    assert record(name) == golden[name]


if __name__ == "__main__":
    os.environ.pop("HYPOGUARD_SEED", None)
    GOLDEN_PATH.write_text(json.dumps({name: record(name) for name in CALLS}, indent=1) + "\n")
