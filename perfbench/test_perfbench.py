"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run every workload twice traced (a fixed number of cycles) and once
untraced for ``--seconds 1``.  That takes about five minutes, most of it
in certify-1d, whose one cycle is a full reference-size certification per
sampler.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that must repeat exactly for one seed; a later commit may claim a
# change in them only because they do.
COUNT_METRICS = (
    "samplers.events_per_replica",
    "samplers.clock_yield",
    "validation.trajectories_per_replica",
    "validation.run_replicas_calls",
    "targets.gradient_calls_per_event",
    "cli.scipy_loaded",
)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=900)


@pytest.fixture(scope="module")
def result():
    cache = {}

    def get(workload, trace, repeat=0):
        key = (workload, trace, repeat)
        if key not in cache:
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr[-3000:]
            cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(result, workload):
    first, second = result(workload, 1, 0), result(workload, 1, 1)
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_the_declared_ones(result, workload, trace):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = result(workload, trace)["metrics"]
    assert {name: m["unit"] for name, m in printed.items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in printed.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_operation_fails(result, workload, trace):
    r = result(workload, trace)
    assert r["attempted"] >= 1
    assert r["failed"] == 0
    assert r["correct"] is True


def test_workload_names_are_the_declared_ones():
    import workloads

    assert list(run.WORKLOAD_NAMES) == WORKLOADS
    assert list(workloads.WORKLOADS) == WORKLOADS


def test_refuses_a_directory_without_the_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "cli-closed-form", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_misses_fail_only_beyond_the_budget():
    import workloads

    rate = workloads.false_alarm_rate(10)
    assert rate == pytest.approx(0.0299, abs=1e-3)  # 2 P(|t_9| > 3)
    assert workloads.miss_budget(8, rate) == 3

    def records(n_missed):
        return [run.Record("langevin", f"c{i}/coverage", 10, 1.0, [], "", f"c{i}",
                           [f"c{i}: coverage report did not pass"] if i < n_missed else [])
                for i in range(8)]

    within = records(3)
    assert run.judge_misses(workloads, "langevin-grid", within)["miss_budget"] == 3
    assert not any(r.failures for r in within)
    beyond = records(4)
    run.judge_misses(workloads, "langevin-grid", beyond)
    assert sum(bool(r.failures) for r in beyond) == 4


def test_self_time_excludes_wrapped_children():
    import types

    mod = types.SimpleNamespace()
    mod.leaf = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.leaf()

    mod.outer = outer
    original_leaf = mod.leaf
    tr = tracer_mod.Tracer()
    tr.patch(mod, "leaf", "leaf")
    tr.patch(mod, "outer", "outer")
    tr.run_span("op", "g", mod.outer)
    tr.remove()
    assert mod.leaf is original_leaf
    assert tr.calls("leaf") == tr.calls("outer") == 1
    assert tr.self_time("outer") == pytest.approx(tr.total("outer") - tr.total("leaf"))
    # Sleeps never end early, so the outer span's own time is at least its
    # sleep and excludes all of the leaf's.
    assert tr.self_time("outer") >= 0.0095
    assert tr.total("leaf") >= 0.0195
    name, start, end, parent, group = tr.spans[2]
    assert (name, parent, group) == ("leaf", 1, "g")
