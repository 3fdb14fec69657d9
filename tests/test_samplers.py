"""Event-time inversion, thinning exactness, reflections, flows, and moments."""

import dataclasses
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats as sps

from hypoguard import (
    HypoParams,
    MomentumModel,
    TargetModel,
    ThinningBoundError,
    bernstein_from_hypo,
    builtin_observable,
    builtin_target,
    flip,
    invert_affine_rate,
    lambda_q_from_target,
    linear_tilt,
    observable_stats_quadrature,
    optimal_eps,
    reflect,
    sample_by_thinning,
    samplers,
    scale_potential,
    simulate_bps,
    simulate_hhmc,
    simulate_langevin,
    simulate_zigzag,
    stationary_expectation_1d,
    time_average,
    validation,
)
from hypoguard.samplers import (
    HamiltonianFlow,
    Trajectory,
    export_csv,
    replica_seed,
    stream_rng,
)


def integrated_rate(a, b, tau, n=200_001):
    s = np.linspace(0.0, tau, n)
    return np.trapezoid(np.maximum(a + b * s, 0.0), s)


class TestAffineInversion:
    def test_positive_slope(self):
        # rate 1 + t: int_0^tau = tau + tau^2/2 = 1.5 at tau = 1
        assert invert_affine_rate(1.0, 1.0, 1.5) == pytest.approx(1.0, rel=1e-12)

    def test_constant_rate(self):
        assert invert_affine_rate(2.0, 0.0, 3.0) == pytest.approx(1.5, rel=1e-12)

    def test_zero_rate_never_fires(self):
        assert invert_affine_rate(0.0, 0.0, 1.0) == math.inf

    def test_negative_start_positive_slope(self):
        # rate is zero until t = -a/b, then grows
        a, b, e = -2.0, 1.0, 0.5
        tau = invert_affine_rate(a, b, e)
        assert tau > 2.0
        assert integrated_rate(a, b, tau) == pytest.approx(e, rel=1e-4)

    def test_positive_start_negative_slope_finite(self):
        # total mass a^2 / (2|b|) = 2; exhaust it -> inf
        a, b = 2.0, -1.0
        tau = invert_affine_rate(a, b, 1.0)
        assert integrated_rate(a, b, tau) == pytest.approx(1.0, rel=1e-4)
        assert invert_affine_rate(a, b, 2.5) == math.inf

    def test_negative_start_negative_slope(self):
        assert invert_affine_rate(-1.0, -1.0, 0.5) == math.inf

    def test_randomized_against_numeric_integral(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-2.0, 2.0)
            e = rng.uniform(0.05, 2.0)
            tau = invert_affine_rate(a, b, e)
            if math.isfinite(tau):
                assert integrated_rate(a, b, tau) == pytest.approx(
                    e, rel=2e-4, abs=2e-4
                )
            else:
                # the total available mass really is below e
                horizon = 1e4 if b >= 0 else max(-a / b, 0.0)
                assert integrated_rate(a, b, horizon) < e + 1e-6


class TestReflection:
    def test_involution_and_isometry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.normal(size=3)
            g = rng.normal(size=3)
            if np.linalg.norm(g) < 1e-9:
                continue
            r = reflect(p, g)
            assert np.linalg.norm(r) == pytest.approx(
                np.linalg.norm(p), rel=1e-12
            )
            assert np.allclose(reflect(r, g), p, atol=1e-12)
            # normal component flips, tangential survives
            ghat = g / np.linalg.norm(g)
            assert np.dot(r, ghat) == pytest.approx(-np.dot(p, ghat), rel=1e-10)

    def test_factor_one_is_projection_removal(self):
        p = np.array([3.0, 1.0])
        g = np.array([1.0, 0.0])
        r = reflect(p, g, factor=1.0)
        assert np.allclose(r, [0.0, 1.0])
        # not an isometry: this is the fault-injection hook
        assert np.linalg.norm(r) != pytest.approx(np.linalg.norm(p))

    def test_flip(self):
        v = np.array([1.0, -1.0, 1.0])
        w = flip(v, 1)
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v, [1.0, -1.0, 1.0])  # input untouched


class TestThinning:
    def test_agrees_with_exact_inversion(self):
        # first arrival of rate 1 + t via thinning vs closed-form inversion
        n = 10_000
        rng1 = np.random.default_rng(100)
        thin = np.array([
            sample_by_thinning(
                lambda s: 1.0 + s,
                lambda t, w: 1.0,  # slope of the rate 1 + t
                window=0.5,
                rng=rng1,
                horizon=50.0,
            )
            for _ in range(n)
        ])
        rng2 = np.random.default_rng(200)
        exact = np.array([
            invert_affine_rate(1.0, 1.0, rng2.exponential()) for _ in range(n)
        ])
        ks = sps.ks_2samp(thin, exact).statistic
        assert ks < 0.02

    def test_bound_violation_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ThinningBoundError):
            sample_by_thinning(
                lambda s: 2.0 + 3.0 * s,
                lambda t, w: 1.0,  # lies: the slope grows at rate 3
                window=0.5,
                rng=rng,
                horizon=10.0,
            )

    def test_no_event_returns_inf(self):
        rng = np.random.default_rng(0)
        assert sample_by_thinning(
            lambda s: 0.0, lambda t, w: 0.1, window=0.5, rng=rng, horizon=5.0
        ) == math.inf

    def test_negative_envelope_skips_windows_without_draws(self):
        # -1 + 0.1 * 0.5 < 0: no window can hold an arrival, so none draws
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert sample_by_thinning(
            lambda s: -1.0, lambda t, w: 0.1, window=0.5, rng=rng, horizon=5.0
        ) == math.inf
        assert rng.bit_generator.state == state


class TestStreams:
    def test_streams_are_independent_and_reproducible(self):
        a = stream_rng(42, "bounce").normal(size=5)
        b = stream_rng(42, "bounce").normal(size=5)
        c = stream_rng(42, "refresh").normal(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        with pytest.raises(KeyError):
            stream_rng(42, "nonsense")

    def test_replica_seeds_differ(self):
        seeds = {replica_seed(42, i) for i in range(100)}
        assert len(seeds) == 100


class TestHamiltonianFlow:
    def test_energy_conserved(self):
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        flow = HamiltonianFlow(np.linalg.eigh(H), mass=1.5)
        q0 = np.array([1.0, -0.5])
        p0 = np.array([0.3, 0.7])

        def energy(q, p):
            return 0.5 * q @ H @ q + 0.5 * p @ p / 1.5

        e0 = energy(q0, p0)
        for t in (0.1, 1.0, 7.3, 30.0):
            q, p = flow(q0[None, :], p0[None, :], np.array([t]))
            assert energy(q[0], p[0]) == pytest.approx(e0, rel=1e-10)

    def test_matches_harmonic_closed_form(self):
        # 1-D: q(t) = q0 cos(wt) + (p0/(m w)) sin(wt), w = sqrt(h/m)
        h, m = 2.0, 0.5
        flow = HamiltonianFlow(np.linalg.eigh(np.array([[h]])), mass=m)
        w = math.sqrt(h / m)
        q0, p0, t = 1.2, -0.4, 0.9
        q, p = flow(np.array([[q0]]), np.array([[p0]]), np.array([t]))
        assert q[0, 0] == pytest.approx(
            q0 * math.cos(w * t) + p0 / (m * w) * math.sin(w * t), rel=1e-12
        )
        assert p[0, 0] == pytest.approx(
            -q0 * m * w * math.sin(w * t) + p0 * math.cos(w * t), rel=1e-12
        )

    @pytest.mark.parametrize("d", [1, 3])
    def test_position_is_the_flow_position_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        A = rng.standard_normal((d, d))
        flow = HamiltonianFlow(np.linalg.eigh(A @ A.T + d * np.eye(d)), mass=1.3)
        q0, p0 = rng.standard_normal((2, 7, d))
        for t in (0.0, 0.37, 12.9):
            assert np.array_equal(flow.positions(q0[0], p0[0])(t), flow(q0[0], p0[0], t)[0])
        t = rng.exponential(size=7)
        assert np.array_equal(flow.positions(q0, p0)(t), flow(q0, p0, t)[0])

    @pytest.mark.parametrize("H", [np.zeros((1, 1)), np.diag([1.0, 0.0]),
                                   np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_hessian_not_positive_definite_rejected(self, H):
        # a zero or negative mode has no normalisable Gibbs measure
        with pytest.raises(ValueError, match="positive definite"):
            HamiltonianFlow(np.linalg.eigh(H), mass=1.0)


def per_event_exact_hhmc(target, momentum, resample_rate, T, seed, q0=None, p0=None):
    """Reference exact HHMC that flows one event at a time: durations and
    momenta drawn 64 at a time as they are needed, each flight mapped to
    eigen-coordinates and back."""
    def draws(block):
        while True:
            yield from block(64)

    rng_init = stream_rng(seed, "init")
    q = target.sample_position(rng_init) if q0 is None else np.array(q0, dtype=float)
    p = momentum.sample(rng_init, target.dim) if p0 is None else np.array(p0, dtype=float)
    rng_dur, rng_refresh = stream_rng(seed, "duration"), stream_rng(seed, "refresh")
    d = target.dim
    durations = draws(lambda n: rng_dur.exponential(size=n).tolist())
    refreshes = draws(lambda n: momentum.sample(rng_refresh, n * d).reshape(n, d))
    flow = HamiltonianFlow(np.linalg.eigh(target.hessian), momentum.mass)
    segments, events, t = [], [], 0.0
    while True:
        tau = min(next(durations) / resample_rate, T - t)
        segments.append((t, tau, q, p))
        t += tau
        if t >= T:
            q, p = flow(q, p, tau)
            break
        q, p = flow.positions(q, p)(tau), next(refreshes)
        events.append((t, "hhmc-resample"))
    times, kinds = zip(*events) if events else ((), ())
    flights = np.rec.fromarrays([np.array(col) for col in zip(*segments)], dtype=[
        ("t0", float), ("duration", float), ("q0", float, (d,)), ("p0", float, (d,))])
    return (flights, np.rec.fromarrays([np.array(times, dtype=float), np.array(kinds, dtype="U13")],
                                       names="time,kind"), q, p)


class TestExactHHMCOracle:
    """The array pass of exact HHMC against the per-event loop it replaced."""

    ISO = builtin_target("gaussian_iso", dim=1, h=1.7)

    @staticmethod
    def _pair(target, momentum, rate, T, seed, **start):
        traj = simulate_hhmc(target, momentum, rate, T, seed, **start)
        return traj, per_event_exact_hhmc(target, momentum, rate, T, seed, **start)

    @pytest.mark.parametrize("target, momentum, rate, T, min_events", [
        (ISO, MomentumModel(kind="gaussian"), 1.0, 150.0, 65),
        (builtin_target("gaussian_iso", dim=1, h=1.7, beta=0.7),
         MomentumModel(kind="gaussian", mass=2.5, beta=0.7), 0.37, 400.0, 65),
    ], ids=["gaussian", "gaussian-mass-rate"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_d1_is_the_per_event_loop_bit_for_bit(self, target, momentum, rate, T, min_events,
                                                  seed):
        for start in ({}, {"q0": np.array([0.4]), "p0": np.array([-1.0])}):
            traj, (segments, events, q, p) = self._pair(target, momentum, rate, T, seed,
                                                        **start)
            # more than one 64-row block of resampled momenta
            assert len(traj.events) >= min_events
            for name in segments.dtype.names:
                assert np.array_equal(traj.segments[name], segments[name]), name
            for name in events.dtype.names:
                assert np.array_equal(traj.events[name], events[name]), name
            assert np.array_equal(traj.final_q, q) and np.array_equal(traj.final_p, p)

    @pytest.mark.parametrize("momentum, rate, T", [
        (MomentumModel(kind="rademacher"), 1.0, 150.0),
        (MomentumModel(kind="rademacher", mass=0.6), 2.3, 40.0),
    ], ids=["rademacher", "rademacher-mass-rate"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rademacher_law_rejected(self, monkeypatch, momentum, rate, T, seed):
        # before any stream is built: the exact flow keeps the Gibbs measure
        # only with momenta resampled from N(0, m/beta); with momenta on
        # {-1, +1}, 20 runs on gaussian_iso (h = 1, T = 2000) read
        # E[q^4] = 1.94 +- 0.02, not 3
        def no_stream(seed, name):
            raise AssertionError(f"stream '{name}' built")

        monkeypatch.setattr(samplers, "stream_rng", no_stream)
        for start in ({}, {"q0": np.array([0.4]), "p0": np.array([-1.0])}):
            with pytest.raises(ValueError, match="^momentum law 'rademacher' is not Gaussian"):
                simulate_hhmc(self.ISO, momentum, rate, T, seed, **start)

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_momentum_beta_other_than_the_targets_rejected(self, monkeypatch, beta):
        # before any stream is built: momenta from N(0, m/beta) with another
        # beta than the target's keep another Gibbs measure; with beta 0.5
        # on gaussian_iso (h = 1, T = 2000, 20 runs) E[q^2] read 2.00, not 1
        def no_stream(seed, name):
            raise AssertionError(f"stream '{name}' built")

        monkeypatch.setattr(samplers, "stream_rng", no_stream)
        momentum = MomentumModel(kind="gaussian", mass=1.3, beta=beta)
        for start in ({}, {"q0": np.array([0.4]), "p0": np.array([-1.0])}):
            with pytest.raises(ValueError, match=f"^momentum beta {beta} is not the target's "
                                                 "beta 1.0"):
                simulate_hhmc(self.ISO, momentum, 1.0, 20.0, 3, **start)

    @pytest.mark.parametrize("momentum", [MomentumModel(kind="gaussian"),
                                          MomentumModel(kind="gaussian", mass=2.0)])
    def test_horizon_before_the_first_resample(self, momentum):
        traj, (segments, events, q, p) = self._pair(self.ISO, momentum, 0.5, 1e-3, 4)
        assert len(traj.events) == 0 and len(traj.segments) == 1
        assert np.array_equal(traj.segments.q0, segments.q0)
        assert np.array_equal(traj.segments.p0, segments.p0)
        assert traj.segments.duration.tolist() == [1e-3]
        assert np.array_equal(traj.final_q, q) and np.array_equal(traj.final_p, p)

    def test_d50_agrees_to_1e_12(self):
        rng = np.random.default_rng(2019)
        H = np.diag(rng.uniform(1.0, 2.0, 50))
        off = rng.uniform(-0.45, 0.45, 49)
        H[np.arange(49), np.arange(1, 50)] = off
        H[np.arange(1, 50), np.arange(49)] = off
        target = builtin_target("gaussian_aniso", H=H)
        for seed in (11, 12):
            traj, (segments, events, q, p) = self._pair(
                target, MomentumModel(kind="gaussian", mass=1.3), 1.0, 50.0, seed)
            assert len(traj.events) > 0
            # the draws and the times do not pass through the eigenbasis
            for name in ("t0", "duration", "p0"):
                assert np.array_equal(traj.segments[name], segments[name]), name
            assert np.array_equal(traj.events.time, events.time)
            # the first flight starts at the start itself, not its round trip
            assert np.array_equal(traj.segments.q0[0], segments.q0[0])
            np.testing.assert_allclose(traj.segments.q0, segments.q0, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(traj.final_q, q, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(traj.final_p, p, rtol=0.0, atol=1e-12)

    def test_array_cos_and_sin_are_the_per_element_calls(self):
        # bit identity at d = 1 rests on this: the per-event loop took cos
        # and sin of one angle at a time, the array pass of all at once
        th = np.random.default_rng(5).exponential(3.0, size=(2000, 3))
        for fn in (np.cos, np.sin):
            each = np.array([[fn(np.array([x]))[0] for x in row] for row in th])
            assert np.array_equal(fn(th), each)


def single_draw_flight_times(seed, rate, T):
    """Exact HHMC's flight starts and durations as the single-draw loop
    makes them: the reference of ``simulate_hhmc``'s loop over blocks of
    duration draws."""
    rng = stream_rng(seed, "duration")
    starts, taus, t = [], [], 0.0
    while t < T:
        tau = min(rng.exponential() / rate, T - t)
        starts.append(t)
        taus.append(tau)
        t += tau
    return starts, taus


class TestHHMCFlightTimes:
    """The flight starts of exact HHMC, single draws taken from 64-draw
    blocks, against the single-draw loop, bit for bit."""

    ISO = builtin_target("gaussian_iso", dim=1, h=1.7)
    MOMENTUM = MomentumModel(kind="gaussian")

    def _assert_loop(self, seed, rate, T):
        traj = simulate_hhmc(self.ISO, self.MOMENTUM, rate, T, seed)
        starts, taus = single_draw_flight_times(seed, rate, T)
        t0, duration = traj.flights[:2]
        assert t0.tolist() == starts and duration.tolist() == taus
        assert traj.events.time.tolist() == starts[1:]
        return len(taus)

    @pytest.mark.parametrize("rate", [1e-3, 1.0, 1e3])
    def test_random_horizons(self, rate):
        rng = np.random.default_rng(int(rate * 1e3))
        for _ in range(4):
            seed = int(rng.integers(2**31))
            first = stream_rng(seed, "duration").exponential() / rate
            # below the first flight's end, then across at least three blocks
            assert self._assert_loop(seed, rate, first * rng.uniform(0.01, 0.99)) == 1
            T = 200.0 / rate * rng.uniform(1.0, 1.5)
            assert self._assert_loop(seed, rate, T) > 3 * 64
            T = math.exp(rng.uniform(-5.0, 5.0)) / rate
            self._assert_loop(seed, rate, T)

    def test_a_cut_flight_that_ends_below_the_horizon(self):
        # t + (T - t) can round below T when t < T / 2: the loop then makes
        # one more flight, and so must simulate_hhmc
        seed, rate = 12, 0.01  # t2 > t1, and t1's bits round for some T
        t1, t2 = (x / rate for x in stream_rng(seed, "duration").exponential(size=2))
        hits = 0
        for T in np.linspace(2.0 * t1, t1 + t2, 2000)[1:-1].tolist():
            if t1 + (T - t1) < T:
                hits += 1
                assert self._assert_loop(seed, rate, T) == 3
        assert hits > 0


def test_init_stream_is_built_only_for_a_missing_start(monkeypatch):
    built = []

    def recording_stream_rng(seed, name):
        built.append(name)
        return stream_rng(seed, name)

    monkeypatch.setattr(samplers, "stream_rng", recording_stream_rng)
    t = builtin_target("gaussian_iso", dim=1)
    mom = MomentumModel(kind="gaussian")
    for sim in (
        lambda **start: simulate_zigzag(t, 5.0, 1, q0=start.get("q0"), v0=start.get("p0")),
        lambda **start: simulate_bps(t, mom, 1.0, 5.0, 1, **start),
        lambda **start: simulate_hhmc(t, mom, 1.0, 5.0, 1, **start),
        lambda **start: simulate_langevin(t, mom, 1.0, 1.0, 0.01, 1, **start),
    ):
        built.clear()
        sim(q0=np.array([0.2]), p0=np.array([1.0]))
        assert "init" not in built
        for start in ({}, {"q0": np.array([0.2])}, {"p0": np.array([1.0])}):
            built.clear()
            sim(**start)
            assert built.count("init") == 1


def stationary_moment_check(sample_avgs, expected, label, z=3.0):
    m = len(sample_avgs)
    mean = float(np.mean(sample_avgs))
    se = float(np.std(sample_avgs, ddof=1)) / math.sqrt(m)
    assert abs(mean - expected) <= z * se, (
        f"{label}: {mean} vs {expected} ({z:.2f}se = {z * se})"
    )


class TestStationaryMoments:
    """First/second moments of q under each exact sampler, 3-sigma MC bands."""

    TARGET = builtin_target("gaussian_iso", dim=1, h=1.0, beta=2.0)
    VAR = 0.5  # 1 / (beta h)
    M, T = 50, 100.0

    def _check(self, sim):
        q1, q2 = [], []
        for i in range(self.M):
            traj = sim(replica_seed(7, i))
            q1.append(time_average(traj, lambda q: q[..., 0]))
            q2.append(time_average(traj, lambda q: q[..., 0] ** 2))
        stationary_moment_check(q1, 0.0, "E[q]")
        stationary_moment_check(q2, self.VAR, "E[q^2]")

    def test_zigzag(self):
        self._check(lambda s: simulate_zigzag(self.TARGET, T=self.T, seed=s))

    def test_bps(self):
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=2.0)
        self._check(
            lambda s: simulate_bps(self.TARGET, mom, refresh_rate=1.0, T=self.T, seed=s)
        )

    def test_hhmc(self):
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=2.0)
        self._check(
            lambda s: simulate_hhmc(self.TARGET, mom, resample_rate=1.0, T=self.T, seed=s)
        )

    def test_langevin(self):
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=2.0)
        self._check(
            lambda s: simulate_langevin(
                self.TARGET, mom, gamma=1.0, T=self.T, step=0.01, seed=s
            )
        )


class TestStationaryMomentsTridiagonal:
    """E[q_j] and E[q_j^2] for every coordinate of a 3-d tridiagonal Gaussian
    under the two PDMPs: six 3-sigma tests per sampler, Bonferroni-corrected
    so the family keeps the false-alarm rate of one 3-sigma test."""

    H = np.array([[1.5, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 2.0]])
    TARGET = builtin_target("gaussian_aniso", H=H, beta=1.0)
    COV = np.linalg.inv(H)
    M, T = 40, 100.0
    Z = float(sps.norm.isf(sps.norm.sf(3.0) / 6))

    def _check(self, sim):
        avgs = {(j, k): [] for j in range(3) for k in (1, 2)}
        for i in range(self.M):
            traj = sim(replica_seed(13, i))
            for j, k in avgs:
                avgs[j, k].append(time_average(traj, lambda q: q[..., j] ** k))
        for (j, k), data in avgs.items():
            expected = 0.0 if k == 1 else self.COV[j, j]
            stationary_moment_check(data, expected, f"E[q{j}^{k}]", z=self.Z)

    def test_zigzag(self):
        self._check(lambda s: simulate_zigzag(self.TARGET, T=self.T, seed=s, refresh_rate=1.0))

    def test_bps(self):
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
        self._check(
            lambda s: simulate_bps(self.TARGET, mom, refresh_rate=1.0, T=self.T, seed=s)
        )


@pytest.fixture
def both_flight_loops(monkeypatch):
    """Run each zig-zag or BPS call twice, as the sampler runs it and with
    the state held on (d,) arrays, and record the state representation the
    sampler chose and the two trajectories."""
    runs = []
    simulate, flight_state = samplers._simulate_pdmp, samplers._flight_state

    def recording(*args):
        chosen = []
        with monkeypatch.context() as m:
            m.setattr(samplers, "_flight_state",
                      lambda *kit: chosen.append(kit[-1]) or flight_state(*kit))
            traj = simulate(*args)
            m.setattr(samplers, "_flight_state", lambda *kit: flight_state(*kit[:-1], False))
            runs.append((chosen, traj, simulate(*args)))
        return traj

    monkeypatch.setattr(samplers, "_simulate_pdmp", recording)
    return runs


class TestFloatFlightsOracle:
    """The d = 1 flight state of zig-zag and BPS on Python floats against the
    (d,) arrays that d > 1 targets run, bit for bit."""

    ISO = builtin_target("gaussian_iso", dim=1, h=2.3)
    ANISO = builtin_target("gaussian_aniso", H=[[1.7]], beta=1.3)
    SCALED = scale_potential(builtin_target("gaussian_iso", dim=1, h=1.4), 0.6)
    START = {"q0": np.array([0.4]), "p0": np.array([-1.0])}
    # thinned targets, from given starts on either side of the barrier (the
    # tilted and scaled wells have no exact stationary draw)
    WELL = builtin_target("double_well", beta=1.5, poincare_const=1.0)
    THINNED = {"well": WELL,
               "well-beta3": builtin_target("double_well", beta=3.0, poincare_const=1.0),
               "well-scaled": scale_potential(WELL, 4.0),
               "well-tilted": linear_tilt(WELL, 0.3)}

    @staticmethod
    def _assert_same(runs):
        assert runs
        for chosen, traj, traj_a in runs:
            # the sampler runs the float state
            assert chosen == [True]
            for table, table_a in ((traj.segments, traj_a.segments),
                                   (traj.events, traj_a.events)):
                assert table.dtype == table_a.dtype
                for name in table.dtype.names:
                    assert np.array_equal(table[name], table_a[name]), name
            for x, y in ((traj.final_q, traj_a.final_q), (traj.final_p, traj_a.final_p)):
                assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
            f = lambda qs: np.cos(qs[:, 0])
            assert time_average(traj, f) == time_average(traj_a, f)

    @pytest.mark.parametrize("target, refresh_rate", [
        (ISO, 1.0), (ISO, 0.0), (ANISO, 0.5), (SCALED, 1.0)],
        ids=["iso", "iso-no-refresh", "aniso-1x1", "scaled"])
    @pytest.mark.parametrize("start", [{}, START], ids=["sampled", "given"])
    def test_zigzag(self, both_flight_loops, target, refresh_rate, start):
        for seed in (1, 2):
            traj = simulate_zigzag(target, 400.0, seed, refresh_rate,
                                   start.get("q0"), start.get("p0"))
            # one flip draw per flight: more than one 64-draw block
            assert len(traj.segments) > 64
        self._assert_same(both_flight_loops)

    @pytest.mark.parametrize("target, momentum, refresh_rate, factor", [
        (ISO, MomentumModel(kind="gaussian", mass=2.5), 1.0, 2.0),
        (ISO, MomentumModel(kind="rademacher"), 0.5, 2.0),
        (ANISO, MomentumModel(kind="gaussian", mass=0.6, beta=1.3), 1.0, 1.7),
        (SCALED, MomentumModel(kind="rademacher", mass=2.5), 1.0, 1.7),
    ], ids=["iso-gaussian-mass", "iso-rademacher", "aniso-1x1-factor", "scaled-factor"])
    @pytest.mark.parametrize("start", [{}, START], ids=["sampled", "given"])
    def test_bps(self, both_flight_loops, target, momentum, refresh_rate, factor, start):
        for seed in (1, 2):
            traj = simulate_bps(target, momentum, refresh_rate, 400.0, seed,
                                reflection_factor=factor, **start)
            assert len(traj.segments) > 64
            assert {"bounce", "refresh"} <= set(traj.events.kind)
        self._assert_same(both_flight_loops)

    @pytest.mark.parametrize("refresh_rate", [0.0, 1.0])
    @pytest.mark.parametrize("name", THINNED)
    def test_zigzag_thinned(self, both_flight_loops, name, refresh_rate):
        for seed, q0 in ((1, 0.9), (2, -1.2)):
            traj = simulate_zigzag(self.THINNED[name], 100.0, seed, refresh_rate,
                                   np.array([q0]), np.array([-1.0]))
            assert np.count_nonzero(traj.events.kind == "flip") > 20
        self._assert_same(both_flight_loops)

    @pytest.mark.parametrize("momentum, factor", [
        (MomentumModel(kind="gaussian", mass=2.5), 2.0),
        (MomentumModel(kind="rademacher"), 2.0),
        (MomentumModel(kind="gaussian"), 1.7),
    ], ids=["gaussian-mass", "rademacher", "factor"])
    @pytest.mark.parametrize("name", THINNED)
    def test_bps_thinned(self, both_flight_loops, name, momentum, factor):
        for seed, q0 in ((1, 0.9), (2, -1.2)):
            traj = simulate_bps(self.THINNED[name], momentum, 1.0, 100.0, seed,
                                np.array([q0]), reflection_factor=factor)
            assert {"bounce", "refresh"} <= set(traj.events.kind)
        self._assert_same(both_flight_loops)

    def test_horizon_before_the_first_event(self, both_flight_loops):
        mom = MomentumModel(kind="gaussian")
        for seed in (1, 2):
            simulate_zigzag(self.ISO, 1e-4, seed, 1.0)
            simulate_bps(self.ISO, mom, 1.0, 1e-4, seed, **self.START)
        for _, traj, _ in both_flight_loops:
            assert len(traj.events) == 0 and traj.segments.duration.tolist() == [1e-4]
        self._assert_same(both_flight_loops)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("sampler", ["zigzag", "bps", "hhmc"])
def test_thinning_without_a_hessian_bound_is_rejected(monkeypatch, sampler, dim):
    # raised once, for either state representation, before a clock stream
    # is built; hybrid HMC has no clock to thin and runs only the exact flow
    # of a quadratic potential, so it refuses every other target, double_well
    # included
    def no_stream(seed, name):
        raise AssertionError(f"stream '{name}' built")

    monkeypatch.setattr(samplers, "stream_rng", no_stream)
    quartic = TargetModel(name="quartic", dim=dim, beta=1.0,
                          potential=lambda q: np.sum(np.asarray(q) ** 4, axis=-1) / 4.0,
                          gradient=lambda q: np.asarray(q, dtype=float) ** 3,
                          poincare_const=1.0)
    q0, p0 = np.full(dim, 0.5), np.ones(dim)
    mom = MomentumModel(kind="gaussian")
    if sampler == "hhmc":
        well = builtin_target("double_well", poincare_const=1.0)
        for target in (quartic, well) if dim == 1 else (quartic,):
            with pytest.raises(ValueError, match=f"^target '{target.name}' is not quadratic: "
                                                 "hybrid HMC runs only its exact flow$"):
                simulate_hhmc(target, mom, 1.0, 5.0, 1, q0, p0)
        return
    with pytest.raises(ValueError, match="^target 'quartic' needs a hessian_bound for thinning$"):
        if sampler == "zigzag":
            simulate_zigzag(quartic, 5.0, 1, 1.0, q0, p0)
        else:
            simulate_bps(quartic, mom, 1.0, 5.0, 1, q0, p0)


class TestBounceElasticity:
    def test_every_bounce_preserves_speed(self):
        t = builtin_target("gaussian_iso", dim=2, h=1.0, beta=1.0)
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
        traj = simulate_bps(t, mom, refresh_rate=0.2, T=200.0, seed=3)
        bounces = np.flatnonzero(traj.events.kind == "bounce")
        assert len(bounces) > 50
        # bounce k ends flight k and starts flight k + 1
        p0 = traj.segments.p0
        for k in bounces:
            assert np.linalg.norm(p0[k + 1]) == pytest.approx(
                np.linalg.norm(p0[k]), rel=1e-12
            )

    @pytest.mark.parametrize("target", [
        builtin_target("gaussian_iso", dim=2),
        builtin_target("gaussian_aniso", H=[[1.0, 0.8], [0.8, 1.0]]),
    ], ids=["iso", "aniso"])
    def test_rademacher_law_rejected_above_dimension_one(self, monkeypatch, target):
        # before any stream is built: a bounce takes p off {-1, +1}^2, so the
        # law is not invariant; on the aniso target (refresh 0.5, T = 200,
        # 600 replicas) E[q0 q1] read -2.530 +- 0.030, not -2.222
        def no_stream(seed, name):
            raise AssertionError(f"stream '{name}' built")

        monkeypatch.setattr(samplers, "stream_rng", no_stream)
        mom = MomentumModel(kind="rademacher")
        for start in ({}, {"q0": np.array([0.4, -0.2]), "p0": np.array([1.0, -1.0])}):
            with pytest.raises(ValueError, match="^momentum law 'rademacher' is not invariant "
                                                 "under a bounce in dimension 2"):
                simulate_bps(target, mom, 0.5, 50.0, 3, **start)


@pytest.mark.parametrize("sampler", ["zigzag", "bps", "hhmc", "langevin"])
def test_start_of_the_wrong_shape_is_rejected(sampler):
    t = builtin_target("gaussian_iso", dim=3)
    mom = MomentumModel(kind="gaussian")
    sim = {
        "zigzag": lambda q0, p0: simulate_zigzag(t, 5.0, 1, q0=q0, v0=p0),
        "bps": lambda q0, p0: simulate_bps(t, mom, 1.0, 5.0, 1, q0=q0, p0=p0),
        "hhmc": lambda q0, p0: simulate_hhmc(t, mom, 1.0, 5.0, 1, q0=q0, p0=p0),
        "langevin": lambda q0, p0: simulate_langevin(t, mom, 1.0, 5.0, 0.01, 1, q0=q0, p0=p0),
    }[sampler]
    with pytest.raises(ValueError, match=r"position must have shape \(3,\), got \(1,\)"):
        sim([0.5], None)
    with pytest.raises(ValueError, match=r"momentum must have shape \(3,\), got \(1,\)"):
        sim(None, [1.0])


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("sampler", ["zigzag", "bps", "hhmc", "langevin"])
def test_non_finite_start_is_rejected(sampler, value):
    # every sampler would otherwise carry a NaN or infinite start through
    # its whole path without an error
    mom = MomentumModel(kind="gaussian")
    sim = {
        "zigzag": lambda t, q0, p0: simulate_zigzag(t, 5.0, 1, q0=q0, v0=p0),
        "bps": lambda t, q0, p0: simulate_bps(t, mom, 1.0, 5.0, 1, q0=q0, p0=p0),
        "hhmc": lambda t, q0, p0: simulate_hhmc(t, mom, 1.0, 5.0, 1, q0=q0, p0=p0),
        "langevin": lambda t, q0, p0: simulate_langevin(t, mom, 1.0, 5.0, 0.01, 1, q0=q0,
                                                        p0=p0),
    }[sampler]
    for d in (1, 2):
        t = builtin_target("gaussian_iso", dim=d)
        bad = np.full(d, value)
        with pytest.raises(ValueError, match="initial position must be finite"):
            sim(t, bad, None)
        # a zig-zag velocity must be +-1, which is checked on its own
        if sampler != "zigzag":
            with pytest.raises(ValueError, match="initial momentum must be finite"):
                sim(t, None, bad)
    if sampler == "langevin":
        good = np.zeros((3, 2))
        for q0, p0, which in ((good, np.full((3, 2), value), "momentum"),
                              (np.full((3, 2), value), good, "position")):
            with pytest.raises(ValueError, match=f"initial {which} must be finite"):
                samplers.simulate_langevin_batch(t, mom, 1.0, 5.0, 0.01, [1, 2, 3], q0, p0)


def test_langevin_batch_rejects_starts_that_disagree_with_its_seeds_or_target():
    # one replica's noise would broadcast over three starts, and a 3-D start
    # would run a 3-D path on a 2-D target
    t = builtin_target("gaussian_iso", dim=2)
    mom = MomentumModel(kind="gaussian")
    cases = [([7], (3, 2), r"\(1, 2\), got \(3, 2\)"), ([1, 2], (2, 3), r"\(2, 2\), got \(2, 3\)")]
    for seeds, shape, shapes in cases:
        good, bad = np.zeros((len(seeds), 2)), np.zeros(shape)
        for which, q0, p0 in (("position", bad, good), ("momentum", good, bad)):
            with pytest.raises(ValueError, match=f"initial {which} must have shape {shapes}"):
                samplers.simulate_langevin_batch(t, mom, 1.0, 1.0, 0.01, seeds, q0, p0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("sampler, param", [
    ("zigzag", "T"), ("zigzag", "refresh_rate"), ("bps", "T"), ("bps", "refresh_rate"),
    ("hhmc", "T"), ("hhmc", "resample_rate"),
    ("langevin", "T"), ("langevin", "step"), ("langevin", "gamma")])
def test_non_finite_horizon_rate_or_step_is_rejected(monkeypatch, sampler, param, value):
    # checked before any stream is built, so no loop runs: with T = inf the
    # flight loops would never end
    def no_stream(seed, name):
        raise AssertionError(f"stream '{name}' built")

    monkeypatch.setattr(samplers, "stream_rng", no_stream)
    t = builtin_target("gaussian_iso", dim=1)
    mom = MomentumModel(kind="gaussian")
    a = {"T": 5.0, "refresh_rate": 1.0, "resample_rate": 1.0, "step": 0.01, "gamma": 1.0,
         param: value}
    q0, p0 = np.array([0.2]), np.array([1.0])
    sim = {
        "zigzag": lambda: simulate_zigzag(t, a["T"], 1, a["refresh_rate"], q0, p0),
        "bps": lambda: simulate_bps(t, mom, a["refresh_rate"], a["T"], 1, q0, p0),
        "hhmc": lambda: simulate_hhmc(t, mom, a["resample_rate"], a["T"], 1, q0, p0),
        "langevin": lambda: simulate_langevin(t, mom, a["gamma"], a["T"], a["step"], 1, q0, p0),
    }[sampler]
    with pytest.raises(ValueError, match=f"^{param} must be finite"):
        sim()


@pytest.mark.parametrize("sampler, param, value, message", [
    ("zigzag", "T", 0.0, "need T > 0"),
    ("zigzag", "refresh_rate", -1.0, "need refresh_rate >= 0"),
    ("bps", "refresh_rate", -1.0, "need refresh_rate >= 0"),
    ("hhmc", "resample_rate", 0.0, "need resample_rate > 0"),
    ("langevin", "gamma", 0.0, "need gamma > 0"),
    ("langevin", "step", -0.01, "need step > 0")])
def test_horizon_rate_or_step_out_of_range_is_rejected_by_name(sampler, param, value, message):
    # one check for every sampler; a refresh rate of 0 switches refreshes off
    t = builtin_target("gaussian_iso", dim=1)
    mom = MomentumModel(kind="gaussian")
    a = {"T": 5.0, "refresh_rate": 0.0, "resample_rate": 1.0, "step": 0.01, "gamma": 1.0}
    sim = {
        "zigzag": lambda a: simulate_zigzag(t, a["T"], 1, a["refresh_rate"]),
        "bps": lambda a: simulate_bps(t, mom, a["refresh_rate"], a["T"], 1),
        "hhmc": lambda a: simulate_hhmc(t, mom, a["resample_rate"], a["T"], 1),
        "langevin": lambda a: simulate_langevin(t, mom, a["gamma"], a["T"], a["step"], 1),
    }[sampler]
    sim(a)
    with pytest.raises(ValueError, match=f"^{message}, got {value}"):
        sim({**a, param: value})


class TestDeterminism:
    def test_bit_identical_trajectories(self):
        t = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
        for sim in (
            lambda s: simulate_zigzag(t, T=20.0, seed=s),
            lambda s: simulate_bps(t, mom, refresh_rate=1.0, T=20.0, seed=s),
            lambda s: simulate_hhmc(t, mom, resample_rate=1.0, T=20.0, seed=s),
            lambda s: simulate_langevin(t, mom, gamma=1.0, T=20.0, step=0.01, seed=s),
        ):
            a, b = sim(11), sim(11)
            assert np.array_equal(a.final_q, b.final_q)
            assert np.array_equal(a.final_p, b.final_p)
            assert len(a.events) == len(b.events)


class TestTimeAveraging:
    def test_quadrature_order_insensitive(self):
        t = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
        for traj in (
            simulate_zigzag(t, T=50.0, seed=2),
            simulate_bps(t, mom, refresh_rate=1.0, T=50.0, seed=2),
            simulate_hhmc(t, mom, resample_rate=1.0, T=50.0, seed=2),
        ):
            f = lambda q: np.cos(q[..., 0])
            assert time_average(traj, f) == pytest.approx(
                per_segment_time_average(traj, f, order=10), abs=1e-10
            )

    def test_rule_is_five_point_gauss_legendre_on_the_unit_interval(self):
        # the literals are NumPy's leggauss(5) bits, within 8 ulp of the
        # closed forms (not correctly rounded: the nodes are off by up to 2.1
        # ulp, the weights by up to 6.9)
        with mpmath.workdps(50):
            inner = mpmath.sqrt(5 - 2 * mpmath.sqrt(mpmath.mpf(10) / 7)) / 3
            outer = mpmath.sqrt(5 + 2 * mpmath.sqrt(mpmath.mpf(10) / 7)) / 3
            w_inner = (322 + 13 * mpmath.sqrt(70)) / 900
            w_outer = (322 - 13 * mpmath.sqrt(70)) / 900
            nodes = [(1 + x) / 2 for x in (-outer, -inner, 0, inner, outer)]
            weights = [w / 2 for w in (w_outer, w_inner, mpmath.mpf(128) / 225, w_inner, w_outer)]
            for literals, exact in ((samplers._GL5_NODES, nodes),
                                    (samplers._GL5_WEIGHTS, weights)):
                assert len(literals) == 5
                for lit, x in zip(literals, exact):
                    assert type(lit) is float and abs(lit - x) <= 8 * math.ulp(lit), (lit, x)

    def test_linear_segment_average_exact(self):
        # zig-zag piece q(t) = q0 + v t: time averages of q are exact means
        t = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
        traj = simulate_zigzag(t, T=10.0, seed=9)
        avg = time_average(traj, lambda q: q[..., 0])
        # oracle: dense sampling along the skeleton
        num = 0.0
        for seg in traj.segments:
            s = np.linspace(0.0, seg.duration, 101)
            qs = seg.q0[0] + seg.p0[0] * s
            num += np.trapezoid(qs, s)
        assert avg == pytest.approx(num / traj.horizon, abs=1e-10)

    @pytest.mark.parametrize("sampler", ["zigzag", "bps"])
    @pytest.mark.parametrize("target, q0", [
        (builtin_target("gaussian_iso", dim=1, h=1.0), None),
        (builtin_target("gaussian_aniso", H=[[2.0, 0.5], [0.5, 1.0]]), None),
        (builtin_target("double_well", beta=1.5, poincare_const=1.0), np.array([0.9])),
    ], ids=["gaussian", "gaussian-2d", "well"])
    def test_polynomials_of_degree_at_most_nine_are_exact(self, sampler, target, q0):
        # along q0 + v s, int_0^tau (q0 + v s)^k ds = sum_j C(k, j) q0^(k-j) v^j
        # tau^(j+1) / (j+1), which 5-point Gauss-Legendre integrates exactly
        mom = MomentumModel(kind="gaussian", mass=1.7)
        traj = (simulate_zigzag(target, 60.0, 4, 1.0, q0) if sampler == "zigzag"
                else simulate_bps(target, mom, 1.0, 60.0, 4, q0))
        seg = traj.segments
        x0, v, tau = seg.q0[:, 0], seg.p0[:, 0] / traj.mass, seg.duration
        assert np.count_nonzero(tau > 0.5) > 5
        for k in (2, 4):
            exact = sum(math.comb(k, j) * x0 ** (k - j) * v ** j * tau ** (j + 1) / (j + 1)
                        for j in range(k + 1)).sum() / traj.horizon
            assert time_average(traj, lambda q: q[..., 0] ** k) == pytest.approx(exact, rel=1e-12)


def per_segment_time_average(traj, f, order=5):
    """The former flow-segment path of time_average, which built the panel
    start times segment by segment: the reference the array form must equal
    bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes01, w01 = 0.5 * (nodes + 1.0), 0.5 * weights
    q0 = np.array([s.q0 for s in traj.segments])
    p0 = np.array([s.p0 for s in traj.segments])
    dur = np.array([s.duration for s in traj.segments])
    k = np.maximum(np.ceil(dur / 0.5).astype(int), 1)
    sub = np.repeat(dur / k, k)
    start = np.concatenate([d / n * np.arange(n) for d, n in zip(dur, k)])
    q0, p0 = np.repeat(q0, k, axis=0), np.repeat(p0, k, axis=0)
    if traj.flow is None:
        position = lambda s: q0 + s[:, None] * (p0 / traj.mass)
    else:
        position = lambda s: traj.flow(q0, p0, s)[0]
    total = 0.0
    for x, w in zip(nodes01, w01):
        total += w * float(np.dot(sub, np.asarray(f(position(start + x * sub)), dtype=float)))
    return total / traj.horizon


def hand_made_trajectory(flow):
    # zero-length, one-panel and multi-panel (duration > 0.5) segments
    durations = [0.0, 0.3, 0.5, 1.7, 0.0, 2.25, 0.5000001, 3.1]
    rng = np.random.default_rng(4)
    t0 = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    # q0 and p0 of each segment in turn
    qp = rng.standard_normal((len(durations), 2, 2))
    return Trajectory(sampler="hhmc" if flow else "bps", horizon=float(sum(durations)),
                      mass=1.3, flights=(t0, np.array(durations), qp[:, 0], qp[:, 1]),
                      flow=flow)


@pytest.mark.parametrize("make", [
    lambda: hand_made_trajectory(None),
    lambda: hand_made_trajectory(
        HamiltonianFlow(np.linalg.eigh(np.array([[2.0, 0.5], [0.5, 1.0]])), 1.3)),
    lambda: simulate_zigzag(builtin_target("gaussian_iso", dim=1), T=50.0, seed=2),
    lambda: simulate_hhmc(builtin_target("gaussian_iso", dim=1),
                          MomentumModel(kind="gaussian"), resample_rate=0.3, T=50.0, seed=2),
    lambda: simulate_langevin(builtin_target("gaussian_iso", dim=2),
                              MomentumModel(kind="gaussian"), 1.0, 10.0, 0.01, 2),
], ids=["linear", "flow", "zigzag", "hhmc", "langevin"])
def test_time_average_matches_per_segment_panels(make):
    traj = make()
    fs = (lambda q: np.cos(q[..., 0]), lambda q: q[..., -1] ** 2)
    scalar = [time_average(traj, f) for f in fs]
    assert all(isinstance(x, float) for x in scalar)
    # the tuple form reads the path once and equals every scalar call bit for bit
    assert time_average(traj, fs) == tuple(scalar)
    if not traj.discretized:
        assert scalar == [per_segment_time_average(traj, f) for f in fs]


def panel_count(traj):
    """The number of quadrature panels time_average lays on a flow path."""
    return int(np.maximum(np.ceil(traj.flights[1] / 0.5), 1).sum())


H3 = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, -0.3], [0.0, -0.3, 1.0]])


@pytest.mark.parametrize("target", [
    builtin_target("gaussian_iso", dim=1, h=1.3), builtin_target("gaussian_aniso", H=H3)],
    ids=["d1", "d3"])
def test_node_groups_never_change_a_bit(monkeypatch, target):
    # every group size from 1 to 5 occurs: 5 nodes as 1+1+1+1+1, 2+2+1, 3+2,
    # 4+1 and 5; one node per call is the layout of the per-node reference
    mom = MomentumModel(kind="gaussian", mass=1.7)
    d = target.dim
    rows = []
    fs = (lambda q: rows.append(len(q)) or np.cos(q[:, 0]),
          lambda q: np.sum(q * target.gradient(q), axis=1),
          lambda q: q[:, -1] ** 2)
    for traj in (simulate_zigzag(target, 60.0, 3, 0.5),
                 simulate_bps(target, mom, 1.0, 60.0, 3),
                 simulate_hhmc(target, mom, 0.5, 60.0, 3)):
        n = panel_count(traj)
        reference = per_segment_time_average(traj, fs[0])
        outcomes = set()
        for group in range(1, 6):
            monkeypatch.setattr(samplers, "_NODE_BLOCK", group * n * d)
            rows.clear()
            outcomes.add((time_average(traj, fs), time_average(traj, fs[0])))
            sizes = [group] * (5 // group) + [5 % group] * (5 % group > 0)
            assert rows == [k * n for k in sizes] * 2
        # one outcome over all group sizes, and the tuple's first entry is the
        # single function's average
        assert len(outcomes) == 1
        (tuple_avg, single), = outcomes
        assert tuple_avg[0] == single == reference


def test_no_call_at_d50_gets_more_than_the_node_block():
    H = 2.0 * np.eye(50) - 0.9 * (np.eye(50, k=1) + np.eye(50, k=-1))
    target = builtin_target("gaussian_aniso", H=H)
    mom = MomentumModel(kind="gaussian")
    shapes, groups = [], set()
    f = lambda q: shapes.append(q.shape) or q[:, 0]
    for T in (2.0, 20.0, 200.0):
        for traj in (simulate_zigzag(target, T, 5, 1.0), simulate_bps(target, mom, 1.0, T, 5),
                     simulate_hhmc(target, mom, 0.5, T, 5)):
            n = panel_count(traj)
            shapes.clear()
            time_average(traj, f)
            assert sum(rows for rows, _ in shapes) == 5 * n
            for rows, d in shapes:
                # whole nodes: one, or as many as fit the block
                assert d == 50 and rows % n == 0
                assert rows == n or rows * d <= samplers._NODE_BLOCK
            groups.add(len(shapes))
    # paths in one call and paths at one node per call
    assert {1, 5} <= groups


def test_reused_position_array_is_safe():
    # a gradient that returns its argument, the array the kit refills: its
    # paths are those of gaussian_iso at h = 1, whose gradient multiplies
    echo = TargetModel(name="echo", dim=1, beta=1.0,
                       potential=lambda q: 0.5 * np.sum(np.square(q), axis=-1),
                       gradient=lambda q: q, poincare_const=1.0, hessian=np.array([[1.0]]))
    iso = builtin_target("gaussian_iso", dim=1, h=1.0)
    mom = MomentumModel(kind="gaussian", mass=1.7)
    for seed in (1, 2):
        pairs = [(simulate_zigzag(t, 200.0, seed, 0.5), simulate_bps(t, mom, 1.0, 200.0, seed))
                 for t in (echo, iso)]
        for traj, traj_iso in zip(*pairs):
            assert len(traj.kinds) > 64 and traj.kinds == traj_iso.kinds
            for col, col_iso in zip(traj.flights, traj_iso.flights):
                assert np.array_equal(col, col_iso)
            assert np.array_equal(traj.final_q, traj_iso.final_q)
            assert np.array_equal(traj.final_p, traj_iso.final_p)


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
@pytest.mark.parametrize("thinned", [False, True], ids=["quadratic", "thinned"])
def test_float_kit_calls_the_target_on_one_float_array(sampler, thinned):
    base = (builtin_target("double_well", beta=1.5, poincare_const=1.0) if thinned
            else builtin_target("gaussian_iso", dim=1, h=1.3))
    args = {"gradient": [], "hessian_bound": []}

    def spy(name):
        fn = getattr(base, name)
        return lambda q, *rest: args[name].append(q) or fn(q, *rest)

    target = dataclasses.replace(
        base, gradient=spy("gradient"),
        hessian_bound=spy("hessian_bound") if thinned else None)
    traj = (simulate_zigzag(target, 100.0, 4, 0.5, np.array([0.9]))
            if sampler == "zigzag"
            else simulate_bps(target, MomentumModel(kind="gaussian", beta=target.beta), 1.0,
                              100.0, 4, np.array([0.9])))
    assert len(traj.kinds) > 64
    calls = args["gradient"] + args["hessian_bound"]
    assert len(args["gradient"]) > len(traj.kinds) and bool(args["hessian_bound"]) == thinned
    for q in calls:
        assert type(q) is np.ndarray and q.dtype == np.float64 and q.shape == (1,)
    # one array for the whole trajectory
    assert all(q is calls[0] for q in calls)


def test_record_arrays_are_built_on_first_read_and_kept(monkeypatch, std_config):
    built, fromarrays = [], np.rec.fromarrays
    monkeypatch.setattr(np.rec, "fromarrays",
                        lambda *args, **kw: built.append(args) or fromarrays(*args, **kw))
    for sampler in ("zigzag", "bps", "hhmc", "langevin"):
        reps = validation.run_replicas(
            dataclasses.replace(std_config, sampler=sampler, T=20.0, replicas=3))
        assert len(reps["F"]) == 3
    assert built == []
    traj = simulate_zigzag(builtin_target("gaussian_iso", dim=2), 20.0, 3, 1.0)
    assert built == []
    segments, events = traj.segments, traj.events
    assert len(built) == 2 and len(events) == len(segments) - 1 > 0
    assert traj.segments is segments and traj.events is events and len(built) == 2


class TestDoubleWellThinning:
    WELL = builtin_target("double_well", beta=1.5, poincare_const=1.0)
    M, T = 16, 1000.0

    def test_runs_and_certifies_bounds(self):
        t = builtin_target("double_well", beta=1.0, poincare_const=2.0)
        traj = simulate_zigzag(t, T=200.0, seed=1, q0=np.array([1.0]))
        assert any(e.kind == "flip" for e in traj.events)
        # both wells visited
        q2 = time_average(traj, lambda q: q[..., 0] ** 2)
        assert 0.3 < q2 < 3.0

    @pytest.mark.parametrize("sampler", ["zigzag", "bps"])
    def test_stationary_moments(self, sampler):
        # cos q and q^2 against quadrature of the Gibbs law, starting in
        # alternate wells
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=self.WELL.beta)
        funcs = (lambda q: np.cos(q[..., 0]), lambda q: q[..., 0] ** 2)
        avgs = []
        for i in range(self.M):
            q0 = np.array([(-1.0) ** i])
            if sampler == "zigzag":
                traj = simulate_zigzag(self.WELL, T=self.T, seed=replica_seed(8, i),
                                       refresh_rate=1.0, q0=q0)
            else:
                traj = simulate_bps(self.WELL, mom, refresh_rate=1.0, T=self.T,
                                    seed=replica_seed(8, i), q0=q0)
            avgs.append(time_average(traj, funcs))
        for j, (func, label) in enumerate(zip(funcs, ("E[cos q]", "E[q^2]"))):
            expected = observable_stats_quadrature(func, self.WELL).mean
            stationary_moment_check([a[j] for a in avgs], expected, f"{sampler} {label}")


def separable_well(dim, beta=1.5, **replace):
    """V = sum_i (q_i^2 - 1)^2 / 4: the double well in each coordinate, with
    |Hess V| <= 3 (|c|_inf + r)^2 + 1 on the ball B(c, r).  ``replace``
    swaps in another gradient or Hessian bound."""
    def potential(q):
        return np.sum((np.asarray(q, dtype=float) ** 2 - 1.0) ** 2, axis=-1) / 4.0

    def gradient(q):
        q = np.asarray(q, dtype=float)
        return q * (q**2 - 1.0)

    def hessian_bound(center, radius):
        return 3.0 * (float(np.max(np.abs(center))) + radius) ** 2 + 1.0

    parts = {"gradient": gradient, "hessian_bound": hessian_bound, **replace}
    return TargetModel(name=f"well^{dim}", dim=dim, beta=beta, potential=potential,
                       poincare_const=1.0, **parts)


def run_pdmp(sampler, target, T, seed, q0):
    """Zig-zag with refreshes, or BPS, on ``target`` from ``q0`` and unit velocity."""
    p0 = np.ones(target.dim)
    if sampler == "zigzag":
        return simulate_zigzag(target, T, seed, 1.0, q0, p0)
    mom = MomentumModel(kind="gaussian", beta=target.beta)
    return simulate_bps(target, mom, 1.0, T, seed, q0, p0)


class TestSeparableWellThinning:
    """The d > 1 thinned clocks that :func:`samplers._flight_state` builds on
    arrays: zig-zag runs one clock per coordinate, BPS one clock along the
    velocity."""

    WELL2 = separable_well(2)
    M, T = 16, 400.0

    @pytest.mark.parametrize("sampler", ["zigzag", "bps"])
    def test_stationary_cos_moments(self, sampler):
        # each coordinate's marginal is the 1-D double well at the same beta;
        # the replicas start in alternate wells
        funcs = (lambda q: np.cos(q[..., 0]), lambda q: np.cos(q[..., 1]))
        avgs = [time_average(run_pdmp(sampler, self.WELL2, self.T, replica_seed(8, i),
                                      np.array([1.0, -1.0]) * (-1.0) ** i), funcs)
                for i in range(self.M)]
        well = builtin_target("double_well", beta=self.WELL2.beta, poincare_const=1.0)
        expected = stationary_expectation_1d(well)(lambda q: np.cos(q[:, 0]))
        for j in range(2):
            stationary_moment_check([a[j] for a in avgs], expected, f"{sampler} E[cos q{j}]")

    @pytest.mark.parametrize("sampler", ["zigzag", "bps"])
    def test_too_small_hessian_bound_raises(self, sampler):
        lying = separable_well(2, hessian_bound=lambda center, radius: 0.1)
        with pytest.raises(ThinningBoundError):
            run_pdmp(sampler, lying, 50.0, 1, np.array([1.5, -1.5]))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
@pytest.mark.parametrize("broken, message", [
    ({"hessian_bound": lambda center, radius: math.nan}, "Lipschitz constant .* got nan"),
    ({"gradient": lambda q: np.full(np.shape(q), math.nan)}, "slope is NaN"),
], ids=["nan-bound", "nan-gradient"])
def test_nan_thinning_input_raises(sampler, dim, broken, message):
    # a NaN envelope fails every "> 0" test, so it would cross each window
    # without a draw and fly through T without an event
    with pytest.raises(ValueError, match=message):
        run_pdmp(sampler, separable_well(dim, **broken), 50.0, 1, np.full(dim, 0.5))


@pytest.mark.parametrize("window", [math.nan, 0.0])
def test_nan_or_empty_thinning_window_raises(window):
    with pytest.raises(ValueError, match="thinning window must be > 0"):
        sample_by_thinning(lambda s: 1.0, lambda t, w: 1.0, window, np.random.default_rng(0),
                           5.0)


class TestLangevin:
    def test_ou_limit_moments(self):
        # gradient-free target (h -> 0 unsupported) replaced by moment check
        # of the full dynamics: stationary var of q is 1/(beta h)
        t = builtin_target("gaussian_iso", dim=1, h=2.0, beta=1.0)
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
        traj = simulate_langevin(t, mom, gamma=2.0, T=500.0, step=0.005, seed=10)
        qs = traj.qs[:, 0]
        burn = len(qs) // 10
        assert np.mean(qs[burn:] ** 2) == pytest.approx(0.5, abs=0.06)
        ps = traj.ps[:, 0]
        assert np.mean(ps[burn:] ** 2) == pytest.approx(1.0, abs=0.1)


def test_export_csv_round_trip(tmp_path):
    t = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
    traj = simulate_zigzag(t, T=10.0, seed=5)
    path = tmp_path / "traj.csv"
    export_csv(traj, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,q0,p0,event"
    assert len(rows) == len(traj.segments) + 2  # header + segments + final state
    # numeric columns parse back to floats
    t0, q0, p0, _ = rows[1].split(",")
    float(t0), float(q0), float(p0)


def test_export_csv_puts_event_k_on_the_row_of_flight_k_plus_one(tmp_path):
    # two events at t = 1 (the flight between them has zero length) keep
    # their own kinds: rows are matched to events by index, not by time
    flights = (np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0]),
               np.array([[0.0], [1.0], [1.0]]), np.array([[1.0], [-1.0], [0.5]]))
    traj = Trajectory("bps", 2.0, 1.0, flights, ["bounce", "refresh"],
                      final_q=np.array([1.5]), final_p=np.array([0.5]))
    path = tmp_path / "traj.csv"
    export_csv(traj, path)
    rows = [row.split(",") for row in path.read_text().strip().split("\n")]
    assert [row[0] for row in rows[1:]] == ["0.0", "1.0", "1.0", "2.0"]
    assert [row[3] for row in rows[1:]] == ["", "bounce", "refresh", ""]


def test_export_csv_langevin_writes_one_row_per_step(tmp_path):
    t = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
    mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
    traj = simulate_langevin(t, mom, gamma=1.0, T=0.5, step=0.1, seed=5)
    path = tmp_path / "traj.csv"
    export_csv(traj, path)
    rows = [row.split(",") for row in path.read_text().strip().split("\n")]
    assert rows[0] == ["t", "q0", "p0", "event"]
    assert len(rows) == len(traj.times) + 1  # header + one row per grid time
    for row, t_k, q_k, p_k in zip(rows[1:], traj.times, traj.qs, traj.ps):
        assert [float(x) for x in row[:3]] == [t_k, q_k[0], p_k[0]]
        assert row[3] == ""


def zigzag_sigma2(f, mean, rho, breaks=(), lim=10.0, h=1e-3):
    """Asymptotic variance sigma^2(f) = lim T Var(F_T) of the 1-D zig-zag on
    N(0, 1) with refresh rate rho:

        sigma^2(f) = 2 E_gamma[(|x| + rho) b(x)^2],
        b(x) = e^{x^2/2} int_x^inf (f - mean) e^{-y^2/2} dy,

    with b(x) = -e^{x^2/2} int_{-inf}^x (f - mean) e^{-y^2/2} dy for x < 0,
    the same value (the integrand integrates to 0) without the cancellation.
    Each cell of a grid on [-lim, lim] that breaks at 0 and at ``breaks``
    (the kinks and jumps of f) is integrated by 5-point Gauss-Legendre, and
    the outer expectation by the trapezoid rule.
    """
    nodes = sorted({-lim, 0.0, lim, *breaks})
    x = np.concatenate([np.linspace(a, b, math.ceil((b - a) / h) + 1)[:-1]
                        for a, b in zip(nodes, nodes[1:])] + [[lim]])
    gx, gw = np.polynomial.legendre.leggauss(5)
    width = np.diff(x)
    y = x[:-1, None] + 0.5 * (gx + 1.0) * width[:, None]
    cells = ((f(y) - mean) * np.exp(-y * y / 2)) @ gw * (0.5 * width)
    upper = np.append(np.cumsum(cells[::-1])[::-1], 0.0)
    lower = np.insert(np.cumsum(cells), 0, 0.0)
    b = np.exp(x * x / 2) * np.where(x >= 0, upper, -lower)
    g = (np.abs(x) + rho) * b * b * np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    return 2.0 * np.trapezoid(g, x)


class TestZigZagVarianceOracle:
    """The exact asymptotic variance of 1-D zig-zag on N(0, 1), against the
    variance proxy v of the reference constants and against simulation."""

    TARGET = builtin_target("gaussian_iso", dim=1)
    BUILTINS = [("cos", {}, ()), ("sin", {}, ()),
                ("indicator", {"a": -0.5, "b": 0.5}, (-0.5, 0.5)),
                ("clipped_coord", {"L": 1.0}, (-1.0, 1.0))]

    def sigma2(self, name, params, breaks, rho):
        obs = builtin_observable(name, self.TARGET, **params)
        return zigzag_sigma2(lambda y: obs.f(y[..., None]).reshape(y.shape),
                             obs.stats.mean, rho, breaks)

    @pytest.mark.parametrize("rho", [0.0, 1.0, 2.0])
    def test_quadrature_meets_the_closed_forms(self, rho):
        # f = x gives b = 1 and f = x^2 - 1 gives b = x, so sigma^2 is
        # 2 (E|x| + rho) and 2 (E|x|^3 + rho E x^2); the trapezoid rule
        # at h = 1e-3 errs by about h^2 / 12 at the kink of |x|
        e_abs = math.sqrt(2.0 / math.pi)
        assert zigzag_sigma2(lambda y: y, 0.0, rho) == pytest.approx(2 * (e_abs + rho), rel=1e-6)
        assert zigzag_sigma2(lambda y: y * y, 1.0, rho) == pytest.approx(
            2 * (2 * e_abs + rho), rel=1e-6)
        # sigma^2 is affine in rho; these are cos's values at rho = 0, 1, 2
        expected = {0.0: 0.2596087, 1.0: 0.4513852, 2.0: 0.6431617}[rho]
        assert self.sigma2("cos", {}, (), rho) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("name, params, breaks", BUILTINS, ids=[b[0] for b in BUILTINS])
    def test_variance_proxy_of_the_reference_constants_dominates(self, name, params, breaks):
        # the reference config: lambda_p = R0 = 1, lambda_q from C_nu =
        # kappa_p = 1, eps = optimal_eps, refresh rate 1
        lambda_q = lambda_q_from_target(1.0, 1.0)
        hypo = HypoParams(lambda_p=1.0, lambda_q=lambda_q, R0=1.0,
                          eps=optimal_eps(lambda_q, 1.0, 1.0))
        obs = builtin_observable(name, self.TARGET, **params)
        pair, _, _ = bernstein_from_hypo(hypo, obs.stats)
        assert self.sigma2(name, params, breaks, 1.0) <= pair.v

    def test_simulated_variance_of_the_time_average_meets_the_oracle(self):
        # T Var(F_T) from a stationary start is sigma^2 - O(1/T); the
        # standard error of the sample variance is sqrt((m4 - s^4) / n)
        T, n = 150.0, 1000
        obs = builtin_observable("cos", self.TARGET)
        fs = np.array([time_average(simulate_zigzag(self.TARGET, T, replica_seed(11, r),
                                                    refresh_rate=1.0), obs)
                       for r in range(n)])
        dev = fs - fs.mean()
        s2, m4 = np.mean(dev ** 2), np.mean(dev ** 4)
        se = T * math.sqrt((m4 - s2 * s2) / n)
        assert abs(T * s2 - self.sigma2("cos", {}, (), 1.0)) <= 4 * se


def test_every_sampler_has_a_proof_status():
    # each simulate_* path has a row in the README proof-status table, and
    # each row names the ROADMAP item that settles its open case
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Proof status", 1)[1].split("\n#", 1)[0]
    table = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("|")]
    rows = table[2:]  # below the header and its rule
    listed = {name for row in rows for name in re.findall(r"`(\w+)`", row[0])}
    simulators = {name for name in samplers.__all__ if name.startswith("simulate_")}
    assert simulators and simulators <= listed, simulators - listed
    assert all(re.search(r"\bitem \d+\b", row[-1]) for row in rows), rows
