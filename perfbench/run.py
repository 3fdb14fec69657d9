#!/usr/bin/env python3
"""hypoguard benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load is a closed loop: this one process
calls the package (or starts one ``hypoguard`` process) and waits for the
result before the next call.  BLAS is held to one thread.

With ``--trace 0`` the run measures the end-to-end metrics untraced for
``--seconds``; with ``--trace 1`` it runs a fixed number of cycles, each
operation untraced and then with the package's public functions wrapped,
and reports the per-layer metrics instead.  Either way the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it and ``.perfbench/results/`` hold the machine record, the
operation counts and the output digests.
"""

import os

# Set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One core for the run and every process it starts (the run waits on each),
# so that the host kernel below times the core the operations ran on.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("certify-1d", "langevin-grid", "clocks-stress", "cli-closed-form")

SETUP_REPEATS = 5       # fresh-interpreter set-ups per run; setup_s is their median
COMPANION_REPEATS = 3   # calls of each companion CLI command per run
COMPANION_PLAN_CHUNKS = 20
IMPORT_PROFILES = 3
# The host's speed on identical work swings by up to 2x within seconds to
# minutes (other tenants share the machine), which no amount of work in one
# run averages out.  So an untraced run times fixed kernels that do not
# touch the package next to every operation, and scales each operation's
# time to a host on which the kernels take their nominal time: about their
# time on the 2-core x86 host the benchmark was tuned on.
HOST_KERNEL_NOMINAL_S = 0.015     # host_kernel(), next to in-process operations
PROCESS_KERNEL_NOMINAL_S = 0.24   # process_kernel(), next to fresh-process operations
# Traced runs do a fixed number of cycles, whatever --seconds says, so two
# traced runs with one seed count the same things.
TRACE_CYCLES = {"certify-1d": 1, "langevin-grid": 2, "clocks-stress": 20, "cli-closed-form": 8}


@dataclass
class Record:
    kind: str
    label: str
    replicas: int
    seconds: float
    failures: list
    digest: str
    group: str = ""
    misses: Optional[list] = None  # None for operations that are not validation checks
    slowdown: Optional[float] = None  # kernels either side over their nominal time


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_op(op, tracer=None) -> Record:
    t0 = time.perf_counter()
    seconds = misses = None
    try:
        if tracer is None:
            outcome = op.fn()
        else:
            outcome = tracer.run_span(f"op:{op.kind}", op.group or op.label, op.fn)
        failures, dig, seconds = outcome.failures, outcome.digest, outcome.seconds
        misses = outcome.misses
    except Exception as exc:  # an operation that raises is counted as failed
        failures, dig = [f"{op.label}: raised {type(exc).__name__}: {exc}"], ""
        traceback.print_exc(file=sys.stderr)
    if seconds is None:
        seconds = time.perf_counter() - t0
    return Record(op.kind, op.label, op.replicas, seconds, failures, dig, op.group, misses)


def fresh_process(kind: str) -> bool:
    """Whether an untraced run's operations of this kind start a fresh interpreter."""
    return kind == "setup" or kind.startswith("cli:")


def run_window(cycles, side_ops: list, seconds: float) -> list:
    """Closed loop for ``seconds``: the workload's operations one after
    another, with the side operations (set-ups, companion calls) spread
    evenly over the window so that every metric samples all of it.  The
    first cycle always runs whole, so every kind of operation is measured.
    The host kernel runs before the first operation and after each one; the
    process kernel runs right before and after each fresh-process one."""
    start = time.perf_counter()
    records, kernels = [], [host_kernel()]

    def run(op):
        fresh = fresh_process(op.kind)
        before = process_kernel() if fresh else None
        record = run_op(op)
        if fresh:
            record.slowdown = (before + process_kernel()) / (2 * PROCESS_KERNEL_NOMINAL_S)
        kernels.append(host_kernel())
        if not fresh:
            record.slowdown = (kernels[-2] + kernels[-1]) / (2 * HOST_KERNEL_NOMINAL_S)
        records.append(record)

    done, first = 0, True
    for cycle in cycles:
        for op in cycle:
            elapsed = time.perf_counter() - start
            while done < len(side_ops) and elapsed >= (done + 0.5) * seconds / len(side_ops):
                run(side_ops[done])
                done += 1
                elapsed = time.perf_counter() - start
            if not first and elapsed >= seconds:
                for side_op in side_ops[done:]:
                    run(side_op)
                return records
            run(op)
        first = False


def process_kernel() -> float:
    """Seconds to start a fresh interpreter that imports numpy.  It tracked
    the time of fresh ``hypoguard`` processes better than host_kernel()."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, env=child_env(), cwd=ROOT)
    return time.perf_counter() - t0


def host_kernel() -> float:
    """Seconds of a fixed kernel of the kind the workloads run: pure-Python
    float arithmetic, then small numpy operations.  Of the kernels tried
    (dict and sort work, numpy on 4 MB arrays, their sums) this one tracked
    the host's speed on in-process operations best."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += math.sin(i)
    a = np.arange(8.0)
    for _ in range(3000):
        a = a * 0.999 + np.sqrt(a)
    return time.perf_counter() - t0


def interleave(*lists) -> list:
    """Merge lists so that each spreads evenly: item j of n sits at (j + 0.5) / n."""
    keyed = [((j + 0.5) / len(ops), i, op) for i, ops in enumerate(lists)
             for j, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


def median(xs):
    return statistics.median(xs) if xs else None


def judge_misses(workloads, name: str, records: list) -> dict:
    """Count the misses (validation reports that did not pass) as failures
    when more configs miss than the budget at the designed false-alarm rate
    allows.  A config is one group of checks; in a traced run its untraced
    and traced checks share the group, so it counts once."""
    configs = {r.group for r in records if r.misses is not None}
    if not configs:
        return {}
    missed = sorted({r.group for r in records if r.misses})
    rate = workloads.false_alarm_rate(workloads.CONFIG_REPLICAS[name])
    budget = workloads.miss_budget(len(configs), rate)
    if len(missed) > budget:
        for r in records:
            r.failures += r.misses or []
    return {"configs": len(configs), "missed_configs": missed,
            "false_alarm_rate": rate, "miss_budget": budget}


# ---------------------------------------------------------------------------
# fresh-process measurements


def setup_once(workloads, workload: str, seed: int):
    proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        return workloads.Outcome([f"setup: exit {proc.returncode}: {proc.stderr[-500:]}"])
    return workloads.Outcome(seconds=float(proc.stdout.split()[-1]))


def import_profile() -> tuple:
    """(hypoguard import seconds, scipy import seconds) from ``-X importtime``
    on ``import hypoguard.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypoguard.cli"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        level = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((level, int(cumulative) * 1e-6, name.strip()))
    # Rows come children first; walking them backwards visits each parent
    # before its children, so a stack gives every row its parent.
    total = scipy = 0.0
    stack = []
    for level, cum, name in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if level == 0 and name.startswith("hypoguard"):
            total += cum
        if name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
            scipy += cum
        stack.append((level, name))
    return total, scipy


def scipy_loaded_after_ci(ref_config: str) -> int:
    code = ("import contextlib, io, sys\n"
            "import hypoguard.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main(['ci', '--config', {ref_config!r}])\n"
            "print(int('scipy' in sys.modules) if rc == 0 else -1)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, check=True)
    return int(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# records


def machine_record(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode())
        src_digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest()[:16],
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child's: an upper bound on
    the combined peak, since children run one at a time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def as_timed(r: Record) -> float:
    return r.seconds


def at_nominal_speed(r: Record) -> float:
    return r.seconds / r.slowdown


def rates(records: list, secs) -> float:
    """Replicas per second for a fixed mix of one replica of each kind: per
    kind, replicas over the seconds spent on them; then the harmonic mean
    over kinds."""
    replicas, seconds = Counter(), Counter()
    for r in records:
        if r.replicas and not r.failures:
            replicas[r.kind] += r.replicas
            seconds[r.kind] += secs(r)
    return len(replicas) / sum(seconds[k] / replicas[k] for k in replicas)


def end_to_end(records: list, plan_chunk: int, secs) -> dict:
    """The end-to-end metrics, with each operation's time taken as ``secs(record)``."""
    ok = [r for r in records if not r.failures]
    cli = {}
    for r in ok:
        if r.kind.startswith("cli:"):
            cli.setdefault(r.kind, []).append(secs(r))
    return {
        "setup_s": median([secs(r) for r in ok if r.kind == "setup"]),
        "replicas_per_s": rates(ok, secs),
        "cli_call_s": statistics.fmean(median(v) for v in cli.values()),
        "plans_per_s": median([plan_chunk / secs(r) for r in ok if r.kind == "plan"]),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# runs


def untraced_run(workloads, name: str, seed: int, seconds: float):
    inputs = workloads.build_inputs(name, seed)
    runner = workloads.CliRunner(WORK / "cli", inprocess=False)
    setups = [workloads.Op("setup", f"setup/{k}", 0,
                           lambda: setup_once(workloads, name, seed))
              for k in range(SETUP_REPEATS)]
    calls, plans = [], []
    if name != "cli-closed-form":
        commands = workloads.companion_commands(inputs, runner)
        for k in range(COMPANION_REPEATS):
            for kind, args in commands:
                label = f"{kind}/call={k}"
                calls.append(workloads.Op(kind, label, 0,
                                          lambda a=args, lb=label: runner.run(a, lb)))
        plans = list(islice(workloads.plan_ops(inputs), COMPANION_PLAN_CHUNKS))
    records = run_window(workloads.workload_cycles(inputs, runner),
                         interleave(setups, calls, plans), seconds)
    slowdowns = {"in_process": [], "fresh_process": []}
    for r in records:
        slowdowns["fresh_process" if fresh_process(r.kind) else "in_process"].append(r.slowdown)
    extra = {"slowdown": {k: median(v) for k, v in slowdowns.items()},
             "as_timed": end_to_end(records, workloads.PLAN_CHUNK, as_timed)}
    return records, end_to_end(records, workloads.PLAN_CHUNK, at_nominal_speed), extra


def counted_targets(workloads, tracer_mod, tracer):
    """``wrap_target`` for build_inputs: targets whose calls ``tracer`` counts."""
    wrap_fn = tracer_mod.counting_wrapper(tracer)
    return lambda target: workloads.counting_target(target, wrap_fn)


def traced_run(workloads, tracer_mod, name: str, seed: int):
    runner = workloads.CliRunner(WORK / "cli", inprocess=True)
    profiles = [import_profile() for _ in range(IMPORT_PROFILES)]
    ref_config = runner.config("reference", workloads.REF_CONFIG)
    metrics = {
        "cli.import_s": median([p[0] for p in profiles]),
        "cli.import_scipy_s": median([p[1] for p in profiles]),
        "cli.scipy_loaded": scipy_loaded_after_ci(ref_config),
    }
    n_cycles = TRACE_CYCLES[name]

    body = tracer_mod.Tracer()
    plain = workloads.build_inputs(name, seed)
    tracer_mod.install(body)
    try:
        wrap = counted_targets(workloads, tracer_mod, body)
        counted = body.run_span("op:setup", "setup",
                                lambda: workloads.build_inputs(name, seed, wrap))
    finally:
        body.remove()
    # Each operation runs untraced and then traced, so drift in the machine's
    # speed reaches both sides of trace.overhead_frac alike.
    pairs = zip(islice(workloads.workload_cycles(plain, runner), n_cycles),
                workloads.workload_cycles(counted, runner))
    records, untraced, traced = [], 0.0, 0.0
    for plain_cycle, counted_cycle in pairs:
        for plain_op, counted_op in zip(plain_cycle, counted_cycle):
            a = run_op(plain_op)
            tracer_mod.install(body)
            try:
                b = run_op(counted_op, body)
            finally:
                body.remove()
            if a.digest != b.digest:
                b.failures.append(f"{b.label}: output differs when traced")
            untraced += a.seconds
            traced += b.seconds
            records += [a, b]

    probe = tracer_mod.Tracer()
    tracer_mod.install(probe)
    try:
        wrap = counted_targets(workloads, tracer_mod, probe)
        records += [run_op(op, probe) for op in workloads.probe_ops(seed, wrap, runner)]
    finally:
        probe.remove()

    from_body = tracer_mod.layer_metrics(body)
    from_probe = tracer_mod.layer_metrics(probe)
    filled = sorted(k for k, v in from_body.items() if v is None)
    for k, v in from_body.items():
        metrics[k] = v if v is not None else from_probe[k]
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    body.dump(WORK / "traces" / f"{name}-seed{seed}.json")
    return records, metrics, {"probe_filled": filled, "trace_cycles": n_cycles}


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypoguard" / "__init__.py").is_file():
        print(f"perfbench: no hypoguard sources under {SRC}", file=sys.stderr)
        return 2
    machine = machine_record(args.seed)
    import tracer as tracer_mod
    import workloads

    if args.trace:
        records, metrics, extra = traced_run(workloads, tracer_mod, args.workload, args.seed)
    else:
        records, metrics, extra = untraced_run(workloads, args.workload, args.seed, args.seconds)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    if any(v is None for v in metrics.values()):
        raise RuntimeError(f"nothing measured for {[k for k, v in metrics.items() if v is None]}")
    misses = judge_misses(workloads, args.workload, records)
    failures = [f for r in records for f in r.failures]
    counts = Counter(r.kind for r in records)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "machine": machine, "operations": counts,
            "failures": failures[:20], "misses": misses, **extra}
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(
        {**info, "metrics": metrics, "units": units, "failures": failures,
         "digests": {r.label: r.digest for r in records if r.digest},
         "seconds_by_kind": {k: [r.seconds for r in records if r.kind == k] for k in counts}},
        indent=1))
    print(json.dumps({**info, "results": str(result_path.relative_to(ROOT))}))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": sum(1 for r in records if r.failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
