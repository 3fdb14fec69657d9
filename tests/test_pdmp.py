"""Zig-zag and BPS share one event clock and one flight loop: pin their
output to reference runs and their gradient cost per event.

``data/pdmp_golden.json`` holds F_T, the final state and the event count of
fixed-seed runs.  The runs on quadratic targets were made with the
per-sampler clocks that the shared clock replaced.  At d = 1 the arithmetic
is the same, so the runs must match bit for bit; at d = 50 one
matrix-vector product per event sums u.(Hv) in another order than the
former row products, so agreement is to 1e-11.  ``hhmc/aniso`` was
recorded with the loop that flowed the momentum at every event and drew
one value per call, and is held to the same 1e-11; the array pass that
replaced it, which moves the positions by one eigen-coordinate recurrence,
is within about 3e-14 of it.  The thinned
``*/well`` runs are pinned, bit for bit, to the affine-envelope clock that
stops at the next refresh; the ``bps/well`` runs at mass 2.5 and at
beta = 3 were added so that regrouping the thinned slope beta * (v * g)
changes a pinned run.  Regenerate the file only for a deliberate change
of the seed contract: ``PYTHONPATH=src python tests/test_pdmp.py``
rewrites the d = 1 entries and keeps the recorded d = 50 references.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from hypoguard import (
    MomentumModel,
    builtin_target,
    simulate_bps,
    simulate_hhmc,
    simulate_langevin,
    simulate_zigzag,
    time_average,
)
from hypoguard import samplers
from hypoguard.samplers import _flight_state

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
MOM_HEAVY = MomentumModel(kind="gaussian", mass=2.5, beta=1.5)
WELL_COLD = builtin_target("double_well", beta=3.0, poincare_const=1.0)
MOM_COLD = MomentumModel(kind="gaussian", mass=1.0, beta=3.0)
START = np.array([1.0])

RUNS = {
    "zigzag/iso": lambda s: simulate_zigzag(ISO, T=50.0, seed=s, refresh_rate=0.5),
    "bps/iso": lambda s: simulate_bps(ISO, MOM, refresh_rate=1.0, T=50.0, seed=s),
    "hhmc/iso": lambda s: simulate_hhmc(ISO, MOM, resample_rate=1.0, T=50.0, seed=s),
    "langevin/iso": lambda s: simulate_langevin(ISO, MOM, gamma=1.0, T=5.0, step=0.01, seed=s),
    "zigzag/well": lambda s: simulate_zigzag(WELL, T=100.0, seed=s, refresh_rate=0.5, q0=START),
    "bps/well": lambda s: simulate_bps(WELL, MOM_WELL, refresh_rate=1.0, T=100.0, seed=s,
                                       q0=START),
    "bps/well-mass2.5": lambda s: simulate_bps(WELL, MOM_HEAVY, refresh_rate=1.0, T=100.0,
                                               seed=s, q0=START),
    "bps/well-beta3": lambda s: simulate_bps(WELL_COLD, MOM_COLD, refresh_rate=1.0, T=100.0,
                                             seed=s, q0=START),
    "zigzag/aniso": lambda s: simulate_zigzag(ANISO, T=5.0, seed=s, refresh_rate=1.0),
    "bps/aniso": lambda s: simulate_bps(ANISO, MOM, refresh_rate=1.0, T=50.0, seed=s),
    "hhmc/aniso": lambda s: simulate_hhmc(ANISO, MOM, resample_rate=1.0, T=50.0, seed=s),
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


def counting(target):
    """``target`` with a gradient that appends to the returned list."""
    calls = []

    def gradient(q):
        calls.append(1)
        return target.gradient(q)

    return dataclasses.replace(target, gradient=gradient), calls


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
def test_one_gradient_call_per_event(sampler):
    target, calls = counting(ANISO)
    if sampler == "zigzag":
        traj = simulate_zigzag(target, T=5.0, seed=3, refresh_rate=1.0)
    else:
        traj = simulate_bps(target, MOM, refresh_rate=1.0, T=50.0, seed=3)
    assert len(traj.events) > 50
    assert len(calls) <= len(traj.events) + 1


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
def test_thinning_gradient_calls_per_event(sampler):
    # one call per envelope proposal or window, and none past the refresh
    target, calls = counting(WELL)
    if sampler == "zigzag":
        traj = simulate_zigzag(target, T=100.0, seed=11, refresh_rate=0.5, q0=START)
    else:
        traj = simulate_bps(target, MOM_WELL, refresh_rate=1.0, T=100.0, seed=11, q0=START)
    assert len(traj.events) > 50
    assert len(calls) <= 8 * len(traj.events)


def recording(target):
    """``target`` with a gradient that appends the bytes of each position it
    is passed to the returned list."""
    positions = []

    def gradient(q):
        positions.append(np.asarray(q, dtype=float).tobytes())
        return target.gradient(q)

    return dataclasses.replace(target, gradient=gradient), positions


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
def test_thinned_flights_take_no_gradient_twice_at_a_point(monkeypatch, sampler):
    # an accepted thinning proposal ends the flight at q + tau v, where its
    # slope took grad V: the kit hands that value to the loop's next gradient
    # call, on floats and on (1,) arrays alike, so no call repeats the last
    def run():
        target, positions = recording(WELL)
        if sampler == "zigzag":
            traj = simulate_zigzag(target, T=100.0, seed=11, refresh_rate=0.5, q0=START)
        else:
            traj = simulate_bps(target, MOM_WELL, refresh_rate=1.0, T=100.0, seed=11, q0=START)
        return traj, positions

    traj, positions = run()
    monkeypatch.setattr(samplers, "_flight_state", lambda *kit: _flight_state(*kit[:-1], False))
    traj_arrays, positions_arrays = run()
    assert sum(kind != "refresh" for kind in traj.kinds) > 25
    assert np.array_equal(traj.flights[1], traj_arrays.flights[1])
    assert len(positions) == len(positions_arrays)
    for calls in (positions, positions_arrays):
        assert all(a != b for a, b in zip(calls, calls[1:]))


def well_hazard(q, v, s):
    """Cumulative rate of the jump clock along q + u v, 0 <= u <= s.

    The slope beta v V'(q + u v) is beta d/du V, so the hazard is beta times
    the positive variation of V; V is monotone between its critical points
    -1, 0 and 1.
    """
    knots = sorted(t for t in ((c - q) / v for c in (-1.0, 0.0, 1.0)) if t > 0.0)
    times = [np.zeros_like(s)] + [np.minimum(t, s) for t in knots] + [s]
    V = [WELL.potential((q + t * v)[..., None]) for t in times]
    return WELL.beta * sum(np.maximum(b - a, 0.0) for a, b in zip(V, V[1:]))


@pytest.mark.parametrize("floats", [True, False], ids=["floats", "arrays"])
@pytest.mark.parametrize("q, v", [(-1.5, 1.0), (1.6, -1.3)])
def test_thinned_clock_has_exact_hazard(q, v, floats):
    # the flight crosses all three critical points of the double well; the
    # kit's clock runs on (q, v) as Python floats, as every 1-D thinned run
    # does, or as (1,) arrays, as d > 1 targets do
    first_jump = _flight_state("flip", lambda v, w: (v * w).tolist(), (None, None), WELL,
                               MomentumModel(kind="rademacher"), 5, floats)[1]
    grad = WELL.gradient(np.array([q]))
    qv, vv = (q, v) if floats else (np.array([q]), np.array([v]))
    # the float kit takes grad V(q) as a Python float
    grad = float(grad[0]) if floats else grad
    arrivals = [first_jump(qv, vv, grad, math.inf)[0] for _ in range(5000)]
    cdf = lambda s: 1.0 - np.exp(-well_hazard(q, v, np.asarray(s, dtype=float)))
    assert sps.kstest(arrivals, cdf).pvalue > 1e-3


if __name__ == "__main__":
    out = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for name in RUNS:
        for seed in SEEDS:
            key = f"{name}/seed={seed}"
            if name in D1 or key not in out:
                rec = record(name, seed)
                out[key] = as_hex(rec) if name in D1 else rec
    GOLDEN_PATH.write_text(json.dumps(out, indent=1) + "\n")
