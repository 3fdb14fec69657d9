"""The replica-batched Langevin engine keeps the seed contract.

``run_replicas`` steps Langevin replicas together, in chunks of
``_LANGEVIN_CHUNK``; each replica keeps its own ``init`` and ``noise``
streams.  Its per-replica averages must equal those of one
``simulate_langevin`` call per replica: bit for bit in 1-D, where every
operation is elementwise, and to 1e-12 at d = 3, where the gradient is a
matrix product whose summation order may depend on the batch shape.
``simulate_langevin`` itself must follow the former one-replica step loop,
transcribed below.
"""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from hypoguard import (
    ExperimentConfig,
    MomentumModel,
    builtin_observable,
    builtin_target,
    linear_tilt,
    simulate_langevin,
    time_average,
)
from hypoguard.samplers import replica_seed, stream_rng
from hypoguard.validation import _LANGEVIN_CHUNK, run_replicas

ISO = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
ANISO = builtin_target("gaussian_aniso", H=[[1.5, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 2.0]])
COS = builtin_observable("cos", ISO, omega=1.0)


def config(target, replicas, initial=None, observable=COS):
    # run_replicas reads neither the bound constants nor the observable's stats
    return ExperimentConfig(
        sampler="langevin", target=target, observable=observable, hypo=None, T=3.0,
        delta=0.1, replicas=replicas, seed=5, mass=1.2, gamma=1.3, step=0.01,
        initial=initial)


def one_by_one(cfg):
    """run_replicas' averages from one simulate_langevin call per replica."""
    rows = []
    for i in range(cfg.replicas):
        seed = replica_seed(cfg.seed, i)
        q0 = p0 = None
        if cfg.initial is not None:
            rng = stream_rng(seed, "init")
            q0 = np.array([cfg.initial[0] + math.sqrt(cfg.initial[1]) * rng.standard_normal()])
            p0 = cfg.momentum().sample(rng, cfg.target.dim)
        traj = simulate_langevin(cfg.target, cfg.momentum(), cfg.gamma, cfg.T, cfg.step, seed,
                                 q0=q0, p0=p0)
        rows.append([time_average(traj, g) for g in (cfg.observable, lambda q: q[..., 0],
                                                     lambda q: q[..., 0] ** 2)])
    F, q_avg, q2_avg = np.array(rows).T
    return {"F": F, "q_avg": q_avg, "q2_avg": q2_avg}


@pytest.mark.parametrize("cfg", [
    config(ISO, 12),
    config(linear_tilt(ISO, 0.3), 12, initial=(0.5, 0.7)),
    config(ISO, _LANGEVIN_CHUNK + 6),  # crosses a chunk boundary
], ids=["iso", "tilt-gaussian-start", "two-chunks"])
def test_batch_equals_one_by_one_in_1d(cfg):
    batch, single = run_replicas(cfg), one_by_one(cfg)
    for key in ("F", "q_avg", "q2_avg"):
        assert np.array_equal(batch[key], single[key]), key


def test_batch_matches_one_by_one_at_d3():
    cfg = config(ANISO, 10, observable=builtin_observable("cos", ANISO, coord=1))
    batch, single = run_replicas(cfg), one_by_one(cfg)
    for key in ("F", "q_avg", "q2_avg"):
        assert np.allclose(batch[key], single[key], rtol=0.0, atol=1e-12), key


def former_step_loop(target, momentum, gamma, T, step, seed):
    """The one-replica Langevin loop that the batched engine replaced."""
    rng_init, rng_noise = stream_rng(seed, "init"), stream_rng(seed, "noise")
    q = np.array(target.sample_position(rng_init))
    p = momentum.sample(rng_init, target.dim)
    m, beta = momentum.mass, momentum.beta
    n_steps = int(math.ceil(T / step))
    qs = np.empty((n_steps + 1, target.dim))
    qs[0] = q
    c1 = math.exp(-gamma * step / m)
    c2 = math.sqrt(m / beta * (1.0 - c1 * c1))
    for k in range(n_steps):
        p = p - 0.5 * step * target.gradient(q)
        q = q + 0.5 * step * p / m
        p = c1 * p + c2 * rng_noise.standard_normal(target.dim)
        q = q + 0.5 * step * p / m
        p = p - 0.5 * step * target.gradient(q)
        qs[k + 1] = q
    return qs, p


@pytest.mark.parametrize("target,exact", [(ISO, True), (ANISO, False)], ids=["iso", "aniso"])
def test_simulate_langevin_follows_former_loop(target, exact):
    # 2500 steps: more than two noise blocks
    mom = MomentumModel(kind="gaussian", mass=1.2, beta=target.beta)
    traj = simulate_langevin(target, mom, gamma=1.3, T=25.0, step=0.01, seed=9)
    qs, p = former_step_loop(target, mom, 1.3, 25.0, 0.01, 9)
    if exact:
        assert np.array_equal(traj.qs, qs) and np.array_equal(traj.final_p, p)
    else:
        assert np.allclose(traj.qs, qs, rtol=0.0, atol=1e-12)
        assert np.allclose(traj.final_p, p, rtol=0.0, atol=1e-12)
    assert np.array_equal(traj.final_q, traj.qs[-1])


def test_one_chunk_of_paths_at_a_time(monkeypatch):
    from hypoguard import validation

    sizes, earlier = [], []
    batch = validation.simulate_langevin_batch

    def spy(*args):
        sizes.append(len(args[5]))
        # the paths of the chunk before are freed before this one is stepped
        assert not any(ref() for ref in earlier)
        trajs = batch(*args)
        earlier.extend(weakref.ref(traj) for traj in trajs)
        return trajs

    monkeypatch.setattr(validation, "simulate_langevin_batch", spy)
    run_replicas(dataclasses.replace(config(ISO, 2), replicas=2 * _LANGEVIN_CHUNK + 1, T=0.05))
    assert sizes == [_LANGEVIN_CHUNK, _LANGEVIN_CHUNK, 1]
