"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--out FILE]

For every workload in BENCHMARK.json it makes one untraced run per seed, then one traced run
with the first seed, and reports per end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, against the bound in BENCHMARK.json.  With ``--out``
it writes the summary, with the machine record of the first run, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": [lo, hi], "end_to_end": {}, "per_layer": {},
               "failed": {}, "machine": None}
    for workload in [w["name"] for w in spec["workloads"]]:
        values, failed = {}, 0
        for seed in range(lo, hi + 1):
            info, result = one_run(workload, seed, seconds, 0)
            summary["machine"] = summary["machine"] or info["machine"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary["failed"][workload] = failed
        summary["end_to_end"][workload] = {k: summarise(v) for k, v in values.items()}
        for name, s in summary["end_to_end"][workload].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {workload:16s} {name:15s} median {s['median']:12.4f} "
                  f"spread {s['spread']:.4f} bound {bounds[name]} {flag}", flush=True)
        _, traced = one_run(workload, lo, seconds, 1)
        summary["failed"][workload] += traced["failed"]
        summary["per_layer"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
