"""Time one set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_child.py WORKLOAD SEED

The clock starts before ``import hypoguard`` (``hypoguard.cli`` for the CLI
workload) and stops once the workload's inputs are built.  ``workloads``
imports the package's modules only where building the inputs uses them, so
the timed span loads nothing the package and the inputs do not need.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
name, seed = sys.argv[1], int(sys.argv[2])
if name == "cli-closed-form":
    import hypoguard.cli  # noqa: E402,F401
else:
    import hypoguard  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_inputs(name, seed)
print(time.perf_counter() - t0)
