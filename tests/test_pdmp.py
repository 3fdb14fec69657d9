"""Zig-zag and BPS share one event clock and one flight loop: pin their
output to reference runs and their gradient cost per event.

``data/pdmp_golden.json`` holds F_T, the final state and the event count of
fixed-seed runs made with the per-sampler clocks that the shared clock
replaced.  At d = 1 the arithmetic is the same, so the runs must match bit
for bit; at d = 50 one matrix-vector product per event sums u.(Hv) in
another order than the former row products, so agreement is to 1e-11.
Regenerate the file only for a deliberate change of the seed contract:
``PYTHONPATH=src python tests/test_pdmp.py``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from hypoguard import (
    MomentumModel,
    builtin_target,
    simulate_bps,
    simulate_hhmc,
    simulate_langevin,
    simulate_zigzag,
    time_average,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "pdmp_golden.json"
SEEDS = (11, 12)


def tridiagonal_hessian(rng, d):
    """Diagonally dominant, hence positive definite, tridiagonal H."""
    H = np.diag(rng.uniform(1.0, 2.0, d))
    off = rng.uniform(-0.45, 0.45, d - 1)
    H[np.arange(d - 1), np.arange(1, d)] = off
    H[np.arange(1, d), np.arange(d - 1)] = off
    return H


ISO = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
WELL = builtin_target("double_well", beta=1.5, poincare_const=1.0)
ANISO = builtin_target("gaussian_aniso", H=tridiagonal_hessian(np.random.default_rng(2019), 50))
MOM = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
MOM_WELL = MomentumModel(kind="gaussian", mass=1.0, beta=1.5)
START = np.array([1.0])

RUNS = {
    "zigzag/iso": lambda s: simulate_zigzag(ISO, T=50.0, seed=s, refresh_rate=0.5),
    "bps/iso": lambda s: simulate_bps(ISO, MOM, refresh_rate=1.0, T=50.0, seed=s),
    "hhmc/iso": lambda s: simulate_hhmc(ISO, MOM, resample_rate=1.0, T=50.0, seed=s),
    "langevin/iso": lambda s: simulate_langevin(ISO, MOM, gamma=1.0, T=5.0, step=0.01, seed=s),
    "zigzag/well": lambda s: simulate_zigzag(WELL, T=100.0, seed=s, refresh_rate=0.5, q0=START),
    "bps/well": lambda s: simulate_bps(WELL, MOM_WELL, refresh_rate=1.0, T=100.0, seed=s,
                                       q0=START),
    "zigzag/aniso": lambda s: simulate_zigzag(ANISO, T=5.0, seed=s, refresh_rate=1.0),
    "bps/aniso": lambda s: simulate_bps(ANISO, MOM, refresh_rate=1.0, T=50.0, seed=s),
}
D1 = [k for k in RUNS if not k.endswith("/aniso")]
D50 = [k for k in RUNS if k.endswith("/aniso")]


def record(name, seed):
    traj = RUNS[name](seed)
    return {"F_T": time_average(traj, lambda q: np.cos(q[..., 0])),
            "q": traj.final_q.tolist(), "p": traj.final_p.tolist(),
            "events": len(traj.events)}


def as_hex(rec):
    return {"F_T": rec["F_T"].hex(), "q": [x.hex() for x in rec["q"]],
            "p": [x.hex() for x in rec["p"]], "events": rec["events"]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", D1)
def test_golden_d1_bit_identical(golden, name, seed):
    assert as_hex(record(name, seed)) == golden[f"{name}/seed={seed}"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", D50)
def test_golden_d50_within_1e11(golden, name, seed):
    rec, ref = record(name, seed), golden[f"{name}/seed={seed}"]
    assert rec["events"] == ref["events"]
    assert abs(rec["F_T"] - ref["F_T"]) <= 1e-11
    np.testing.assert_allclose(rec["q"], ref["q"], rtol=0, atol=1e-11)
    np.testing.assert_allclose(rec["p"], ref["p"], rtol=0, atol=1e-11)


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
def test_one_gradient_call_per_event(sampler):
    calls = []

    def gradient(q):
        calls.append(1)
        return ANISO.gradient(q)

    target = dataclasses.replace(ANISO, gradient=gradient)
    if sampler == "zigzag":
        traj = simulate_zigzag(target, T=5.0, seed=3, refresh_rate=1.0)
    else:
        traj = simulate_bps(target, MOM, refresh_rate=1.0, T=50.0, seed=3)
    assert len(traj.events) > 50
    assert len(calls) <= len(traj.events) + 1


if __name__ == "__main__":
    out = {}
    for name in RUNS:
        for seed in SEEDS:
            rec = record(name, seed)
            out[f"{name}/seed={seed}"] = as_hex(rec) if name in D1 else rec
    GOLDEN_PATH.write_text(json.dumps(out, indent=1) + "\n")
