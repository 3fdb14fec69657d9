"""The replica-batched Langevin engine keeps the seed contract.

``run_replicas`` steps Langevin replicas together, in chunks of
``_LANGEVIN_CHUNK``; each replica keeps its own ``init`` and ``noise``
streams.  Its per-replica averages must equal those of one
``simulate_langevin`` call per replica: bit for bit in 1-D, where every
operation is elementwise, and to 1e-12 at d = 3, where the gradient is a
matrix product whose summation order may depend on the batch shape.
``simulate_langevin`` itself, and each replica of a batch, must follow the
former one-replica step loop, transcribed below, while the batch evaluates
the gradient once per step and holds little more than its path.
"""

import dataclasses
import math
import tracemalloc
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
from hypoguard.samplers import _NOISE_BLOCK, replica_seed, simulate_langevin_batch, stream_rng
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
        rows.append([time_average(traj, g) for g in cfg.averaged_functions])
    F, dV, q_dV = np.array(rows).T
    return {"F": F, "dV": dV, "q_dV": q_dV}


@pytest.mark.parametrize("cfg", [
    config(ISO, 12),
    config(linear_tilt(ISO, 0.3), 12, initial=(0.5, 0.7)),
    config(ISO, _LANGEVIN_CHUNK + 6),  # crosses a chunk boundary
], ids=["iso", "tilt-gaussian-start", "two-chunks"])
def test_batch_equals_one_by_one_in_1d(cfg):
    batch, single = run_replicas(cfg), one_by_one(cfg)
    for key in ("F", "dV", "q_dV"):
        assert np.array_equal(batch[key], single[key]), key


def test_batch_matches_one_by_one_at_d3():
    cfg = config(ANISO, 10, observable=builtin_observable("cos", ANISO, coord=1))
    batch, single = run_replicas(cfg), one_by_one(cfg)
    for key in ("F", "dV", "q_dV"):
        assert np.allclose(batch[key], single[key], rtol=0.0, atol=1e-12), key


def former_loop_from(target, momentum, gamma, T, step, seed, q, p):
    """The one-replica Langevin loop that the batched engine replaced, from
    the start (q, p): its positions and momenta at every step."""
    rng_noise = stream_rng(seed, "noise")
    m, beta = momentum.mass, momentum.beta
    n_steps = int(math.ceil(T / step))
    qs, ps = np.empty((n_steps + 1, target.dim)), np.empty((n_steps + 1, target.dim))
    qs[0], ps[0] = q, p
    c1 = math.exp(-gamma * step / m)
    c2 = math.sqrt(m / beta * (1.0 - c1 * c1))
    for k in range(n_steps):
        p = p - 0.5 * step * target.gradient(q)
        q = q + 0.5 * step * p / m
        p = c1 * p + c2 * rng_noise.standard_normal(target.dim)
        q = q + 0.5 * step * p / m
        p = p - 0.5 * step * target.gradient(q)
        qs[k + 1], ps[k + 1] = q, p
    return qs, ps


def former_step_loop(target, momentum, gamma, T, step, seed):
    """The former loop from the start that ``simulate_langevin`` draws."""
    rng_init = stream_rng(seed, "init")
    q = np.array(target.sample_position(rng_init))
    p = momentum.sample(rng_init, target.dim)
    qs, ps = former_loop_from(target, momentum, gamma, T, step, seed, q, p)
    return qs, ps[-1]


# the engine skips its divide by m at unit mass, so the former-loop tests
# run both masses
@pytest.mark.parametrize("target,exact,mass", [
    pytest.param(ISO, True, 1.2, id="iso"),
    pytest.param(ANISO, False, 1.2, id="aniso"),
    pytest.param(ISO, True, 1.0, id="iso-unit-mass"),
    pytest.param(ANISO, False, 1.0, id="aniso-unit-mass"),
])
def test_simulate_langevin_follows_former_loop(target, exact, mass):
    # 2500 steps: more than two noise blocks
    mom = MomentumModel(kind="gaussian", mass=mass, beta=target.beta)
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


WELL = builtin_target("double_well", beta=1.5, poincare_const=1.0)


def batch_from(target, replicas, T, seed=4, step=0.01, mass=1.2):
    """simulate_langevin_batch of ``replicas`` replicas from drawn starts,
    with the seeds and starts it was given."""
    seeds = [replica_seed(seed, r) for r in range(replicas)]
    rng = np.random.default_rng(seed)
    q0, p0 = rng.standard_normal((2, replicas, target.dim))
    mom = MomentumModel(kind="gaussian", mass=mass, beta=target.beta)
    return simulate_langevin_batch(target, mom, 1.3, T, step, seeds, q0, p0), seeds, q0, p0


def test_batch_follows_the_former_loop_replica_by_replica():
    # 2500 steps: more than two noise blocks
    trajs, seeds, q0, p0 = batch_from(WELL, 10, T=25.0)
    mom = MomentumModel(kind="gaussian", mass=1.2, beta=WELL.beta)
    for traj, seed, q, p in zip(trajs, seeds, q0, p0):
        qs, ps = former_loop_from(WELL, mom, 1.3, 25.0, 0.01, seed, q, p)
        assert traj.qs.shape == traj.ps.shape == (2501, 1) and traj.times.shape == (2501,)
        assert np.array_equal(traj.qs, qs) and np.array_equal(traj.ps, ps)
        assert np.array_equal(traj.final_q, qs[-1]) and np.array_equal(traj.final_p, ps[-1])


EDGES = [(0.125, 1), (128.0, _NOISE_BLOCK), (128.125, 1025)]


@pytest.mark.parametrize("T, n_steps, mass", [
    *(pytest.param(T, n, 1.2, id=f"{T}-{n}") for T, n in EDGES),
    *(pytest.param(T, n, 1.0, id=f"{T}-{n}-unit-mass") for T, n in EDGES),
])
def test_noise_block_edges_follow_the_former_loop(T, n_steps, mass):
    # one step, one full noise block and one step past it, with step 0.125
    # so that T / step is exact: the stacked buffers carry nothing across a
    # block
    assert _NOISE_BLOCK == 1024
    trajs, seeds, q0, p0 = batch_from(WELL, 3, T=T, step=0.125, mass=mass)
    mom = MomentumModel(kind="gaussian", mass=mass, beta=WELL.beta)
    for traj, seed, q, p in zip(trajs, seeds, q0, p0):
        qs, ps = former_loop_from(WELL, mom, 1.3, T, 0.125, seed, q, p)
        assert len(traj.times) == n_steps + 1 and traj.times[-1] == T
        assert np.array_equal(traj.qs, qs) and np.array_equal(traj.ps, ps)


@pytest.mark.parametrize("mass", [1.0, 1.2])
def test_gradient_that_returns_its_argument_leaves_the_path(mass):
    # TargetModel lets a gradient return its argument, here the path row
    # just written: the kick goes to its own buffer, never into that row
    rows = []

    def gradient(q):
        rows.append(q)
        return q

    own = dataclasses.replace(ISO, gradient=gradient)
    trajs, seeds, q0, p0 = batch_from(own, 3, T=3.0, mass=mass)
    assert all(np.shares_memory(row, trajs[0].qs) for row in rows[1:])
    mom = MomentumModel(kind="gaussian", mass=mass, beta=ISO.beta)
    for traj, seed, q, p in zip(trajs, seeds, q0, p0):
        qs, ps = former_loop_from(own, mom, 1.3, 3.0, 0.01, seed, q, p)
        assert np.array_equal(traj.qs, qs) and np.array_equal(traj.ps, ps)


def test_no_seeds_build_no_stream_and_take_no_gradient(monkeypatch):
    from hypoguard import samplers

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(samplers, "stream_rng", refuse)
    idle = dataclasses.replace(ISO, gradient=refuse)
    mom = MomentumModel(kind="gaussian", mass=1.2, beta=ISO.beta)
    empty = np.empty((0, 1))
    assert simulate_langevin_batch(idle, mom, 1.3, 150.0, 0.01, [], empty, empty) == []
    # the start's shape is still checked first
    with pytest.raises(ValueError, match=r"^initial position must have shape \(0, 1\)"):
        simulate_langevin_batch(idle, mom, 1.3, 150.0, 0.01, [], np.zeros((1, 1)), empty)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_momentum_beta_other_than_the_targets_rejected(monkeypatch, beta):
    # before any stream is built: the OU update draws its noise at the
    # momentum's beta, so with beta 0.5 on gaussian_iso (T = 500, 10 runs)
    # E[q^2] read 1.91, not 1
    from hypoguard import samplers

    def no_stream(seed, name):
        raise AssertionError(f"stream '{name}' built")

    monkeypatch.setattr(samplers, "stream_rng", no_stream)
    mom = MomentumModel(kind="gaussian", mass=1.2, beta=beta)
    message = f"^momentum beta {beta} is not the target's beta 1.0"
    for start in ({}, {"q0": np.array([0.4]), "p0": np.array([-1.0])}):
        with pytest.raises(ValueError, match=message):
            simulate_langevin(ISO, mom, 1.3, 1.0, 0.01, 9, **start)
    with pytest.raises(ValueError, match=message):
        simulate_langevin_batch(ISO, mom, 1.3, 1.0, 0.01, [9, 10], np.zeros((2, 1)),
                                np.ones((2, 1)))


def test_one_gradient_per_step():
    calls = []

    def gradient(q):
        calls.append(q.shape)
        return WELL.gradient(q)

    counted = dataclasses.replace(WELL, gradient=gradient)
    trajs, *_ = batch_from(counted, 3, T=25.0)
    n_steps = len(trajs[0].times) - 1
    assert n_steps == 2500 and calls == [(3, 1)] * (n_steps + 1)


def test_batch_memory_is_its_paths():
    # no copy of the path and no second noise block: the peak stays within
    # 10% of the two stored (n + 1, R, d) arrays
    tracemalloc.start()
    try:
        trajs, *_ = batch_from(ISO, 64, T=150.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path_bytes = 2 * 15_001 * 64 * 8
    assert trajs[0].qs.shape == (15_001, 1)
    assert peak <= 1.1 * path_bytes, peak / path_bytes
