"""All four samplers on the same target: trajectories and ergodic averages.

Each sampler targets nu* ~ exp(-beta q^2/2) with beta = 2 (variance 0.5).
The piecewise-deterministic samplers (zig-zag, bouncy particle) and the
hybrid Hamiltonian sampler are exact; the underdamped Langevin integrator
is discretized with a controlled step.  Time averages of q and q^2 are
compared against the closed-form stationary moments.
"""

import tempfile
from pathlib import Path

from hypoguard import (
    MomentumModel,
    builtin_target,
    simulate_bps,
    simulate_hhmc,
    simulate_langevin,
    simulate_zigzag,
    time_average,
)
from hypoguard.samplers import export_csv

BETA = 2.0
target = builtin_target("gaussian_iso", dim=1, h=1.0, beta=BETA)
momentum = MomentumModel(kind="gaussian", mass=1.0, beta=BETA)
T, SEED = 2000.0, 7

runs = {
    "zig-zag": simulate_zigzag(target, T=T, seed=SEED),
    "bouncy particle": simulate_bps(target, momentum, refresh_rate=1.0, T=T, seed=SEED),
    "hybrid HMC": simulate_hhmc(target, momentum, resample_rate=1.0, T=T, seed=SEED),
    "Langevin (step 0.01)": simulate_langevin(target, momentum, gamma=1.0,
                                              T=T, step=0.01, seed=SEED),
}

print(f"target: Gaussian, stationary Var[q] = {target.marginal_var(0)}")
print(f"horizon T = {T}\n")
print(f"{'sampler':<22} {'events':>7} {'avg q':>9} {'avg q^2':>9}")
for name, traj in runs.items():
    # one pass along the path averages both functions
    q1, q2 = time_average(traj, (lambda q: q[..., 0], lambda q: q[..., 0] ** 2))
    print(f"{name:<22} {len(traj.events):>7} {q1:>9.4f} {q2:>9.4f}")

print("\nexpected:                           0.0000    0.5000")

# the event skeleton is exportable for plotting
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "zigzag_skeleton.csv"
    export_csv(runs["zig-zag"], path)
    rows = path.read_text().splitlines()
print(f"\nzig-zag event skeleton: {len(rows) - 1} CSV rows, header {rows[0]}")
