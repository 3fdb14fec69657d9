"""What a fresh interpreter loads: the lazy package surface, the modules each
command imports, the README quick start run as written, and the grammar of
the oldest Python the package supports."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli_golden import CALLS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# the reference config of ROADMAP and the benchmark: zig-zag on the 1-D
# standard Gaussian, cos, lambda_q derived from the target
REFERENCE = {
    "hypo": {"lambda_p": 1.0, "lambda_q_from": {"C_nu": 1.0, "kappa_p": 1.0},
             "R0": 1.0, "eps": "auto"},
    "target": {"name": "gaussian_iso", "dim": 1, "h": 1.0, "beta": 1.0},
    "observable": {"name": "cos", "omega": 1.0},
    "sampler": {"name": "zigzag", "refresh_rate": 1.0},
    "T": 150.0, "delta": 0.1, "replicas": 200, "seed": 42,
}
SIMULATING = {"hypoguard.samplers", "hypoguard.targets", "hypoguard.validation"}


def run_python(code: str) -> str:
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def loaded_after(argv: list, cfg: dict, tmp_path, since_import: bool = False) -> set:
    """The modules a fresh interpreter holds after ``cli.main(argv)`` on ``cfg``;
    with ``since_import``, only those loaded from ``import hypoguard.cli`` on,
    so that what the environment's site hooks load does not count."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = ("import contextlib, io, json, sys\n"
            "before = set(sys.modules)\n"
            "from hypoguard.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({[*argv, '--config', str(path)]!r})\n"
            "assert code == 0, code\n"
            f"print(json.dumps(sorted(set(sys.modules) - before if {since_import} "
            "else sys.modules)))\n")
    return set(json.loads(run_python(code)))


# every built-in observable, from the stationary start and from a Gaussian
# one, whose norm is a closed form too
OBSERVABLES = [{"name": "cos", "omega": 1.0}, {"name": "sin", "omega": 1.0},
               {"name": "indicator", "a": -0.5, "b": 0.5}, {"name": "clipped_coord", "L": 1.0}]
STARTS = ({}, {"initial": {"kind": "gaussian", "mean": 0.5, "var": 0.5}})


@pytest.mark.parametrize("command", ["ci", "constants"])
@pytest.mark.parametrize("observable", OBSERVABLES, ids=lambda obs: obs["name"])
def test_closed_form_commands_load_neither_numpy_nor_scipy(tmp_path, command, observable):
    for start in STARTS:
        cfg = dict(REFERENCE, observable=observable, **start)
        modules = loaded_after([command], cfg, tmp_path)
        assert not {"numpy", "scipy"} & modules, start
        assert not SIMULATING & modules, start


@pytest.mark.parametrize("command", ["ci", "constants"])
@pytest.mark.parametrize("observable", OBSERVABLES, ids=lambda obs: obs["name"])
def test_closed_form_commands_load_neither_dataclasses_nor_inspect(tmp_path, command, observable):
    # the closed-form records are named tuples: building a frozen dataclass
    # type would load dataclasses, and with it inspect (about 9 ms a process)
    for start in STARTS:
        cfg = dict(REFERENCE, observable=observable, **start)
        modules = loaded_after([command], cfg, tmp_path, since_import=True)
        assert "hypoguard.cli" in modules, start
        assert not {"dataclasses", "inspect"} & modules, start


@pytest.mark.parametrize("which", ["eigen", "perturb"])
def test_lab_loads_no_simulating_module(tmp_path, which):
    modules = loaded_after(["lab", which, "--seed", "7"], REFERENCE, tmp_path)
    assert "hypoguard.operator_lab" in modules and "numpy" in modules
    assert not SIMULATING & modules


def test_every_public_name_resolves_through_the_lazy_package():
    code = ("import sys, hypoguard\n"
            "assert 'numpy' not in sys.modules\n"
            "assert all(getattr(hypoguard, name) is not None for name in hypoguard.__all__)\n"
            "assert set(hypoguard.__all__) <= set(dir(hypoguard))\n"
            "from hypoguard import simulate_zigzag\n"
            "from hypoguard.samplers import simulate_zigzag as direct\n"
            "assert simulate_zigzag is direct\n"
            "try:\n"
            "    hypoguard.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n")
    assert run_python(code) == "ok\n"


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert run_python(block) == "0.5733 in [-0.8273, 2.0404] with probability >= 0.9\n"


def test_gibbs_quadrature_and_poincare_estimate_load_no_scipy(tmp_path):
    # 1-D quadrature and the tridiagonal eigenvalue are in the package
    code = ("import sys\n"
            "import numpy as np\n"
            "from hypoguard import builtin_target, estimate_poincare_1d, "
            "observable_stats_quadrature\n"
            "well = builtin_target('double_well', beta=1.5, poincare_const=1.0)\n"
            "assert estimate_poincare_1d(well) > 0\n"
            "observable_stats_quadrature(lambda q: np.cos(q[..., 0]), well)\n"
            "print('scipy' in sys.modules)\n")
    assert run_python(code) == "False\n"
    for name in ("validate uq", "validate uq scale"):
        argv, cfg, _ = CALLS[name]
        assert "scipy" not in loaded_after(argv, cfg, tmp_path), name


def test_every_command_runs_where_scipy_cannot_be_imported():
    # scipy is a test oracle only: in an interpreter whose import system
    # refuses it, every command runs on the observables that read the normal
    # CDF, and the BPS call keeps its golden digest
    calls = {"sample bps aniso": CALLS["sample bps aniso"]}
    for observable in ({"name": "indicator", "a": -0.5, "b": 0.5}, {"name": "clipped_coord", "L": 1.0}):
        # at T = 500 both radii are below the trivial bound, so coverage can pass
        cfg = dict(REFERENCE, observable=observable, T=500.0, replicas=10,
                   perturbation={"kind": "scale", "factor": 1.2})
        for argv in (["ci"], ["constants"], ["sample"], ["validate", "all"], ["validate", "uq"]):
            calls[f"{' '.join(argv)} {observable['name']}"] = (argv, cfg, {})
    code = ("import json, sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is refused')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "try:\n"
            "    import scipy.special\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('scipy was imported')\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import test_cli_golden as golden\n"
            f"golden.CALLS = json.loads({json.dumps(calls)!r})\n"
            "print(json.dumps({name: golden.record(name) for name in golden.CALLS}))\n")
    records = json.loads(run_python(code))
    assert {name: rec["exit"] for name, rec in records.items()} == dict.fromkeys(calls, 0)
    expected = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    assert records["sample bps aniso"] == expected["sample bps aniso"]


def test_every_source_file_parses_with_the_python_3_10_grammar():
    # pyproject.toml sets requires-python >= 3.10 while CI runs one newer
    # Python: no syntax added after 3.10 in the package, the tests, the
    # benchmark or the demos (stdlib APIs added later are not checked here)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = [path for folder in ("src", "tests", "perfbench", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
