"""Event-time inversion, thinning exactness, reflections, flows, and moments."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from hypoguard import (
    MomentumModel,
    ThinningBoundError,
    builtin_target,
    flip,
    invert_affine_rate,
    reflect,
    sample_by_thinning,
    simulate_bps,
    simulate_hhmc,
    simulate_langevin,
    simulate_zigzag,
    time_average,
)
from hypoguard.samplers import (
    HamiltonianFlow,
    Segment,
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
                lambda t, w: 1.0 + t + w,
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
                lambda s: 2.0,
                lambda t, w: 1.0,  # lies about the bound
                window=0.5,
                rng=rng,
                horizon=10.0,
            )

    def test_no_event_returns_inf(self):
        rng = np.random.default_rng(0)
        assert sample_by_thinning(
            lambda s: 0.0, lambda t, w: 0.1, window=0.5, rng=rng, horizon=5.0
        ) == math.inf


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
        flow = HamiltonianFlow(H, mass=1.5)
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
        flow = HamiltonianFlow(np.array([[h]]), mass=m)
        w = math.sqrt(h / m)
        q0, p0, t = 1.2, -0.4, 0.9
        q, p = flow(np.array([[q0]]), np.array([[p0]]), np.array([t]))
        assert q[0, 0] == pytest.approx(
            q0 * math.cos(w * t) + p0 / (m * w) * math.sin(w * t), rel=1e-12
        )
        assert p[0, 0] == pytest.approx(
            -q0 * m * w * math.sin(w * t) + p0 * math.cos(w * t), rel=1e-12
        )

    @pytest.mark.parametrize("H", [np.zeros((1, 1)), np.diag([1.0, 0.0]),
                                   np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_hessian_not_positive_definite_rejected(self, H):
        # a zero or negative mode has no normalisable Gibbs measure
        with pytest.raises(ValueError, match="positive definite"):
            HamiltonianFlow(H, mass=1.0)


class TestHHMCIntegrator:
    def test_non_quadratic_target_runs_leapfrog(self):
        t = builtin_target("double_well", beta=1.0, poincare_const=1.0)
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
        T, step = 5.0, 0.03
        traj = simulate_hhmc(t, mom, resample_rate=1.0, T=T, seed=3, step=step,
                             q0=np.array([1.0]))
        assert traj.discretized and traj.flow is None
        assert len(traj.times) == math.ceil(T / step) + 1
        assert np.all(np.isfinite(traj.final_q)) and np.all(np.isfinite(traj.final_p))


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


class TestBounceElasticity:
    def test_every_bounce_preserves_speed(self):
        t = builtin_target("gaussian_iso", dim=2, h=1.0, beta=1.0)
        mom = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
        traj = simulate_bps(t, mom, refresh_rate=0.2, T=200.0, seed=3)
        bounces = [e for e in traj.events if e.kind == "bounce"]
        assert len(bounces) > 50
        for e in bounces:
            assert np.linalg.norm(e.p_after) == pytest.approx(
                np.linalg.norm(e.p_before), rel=1e-12
            )


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
            assert time_average(traj, f, order=5) == pytest.approx(
                time_average(traj, f, order=10), abs=1e-10
            )

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
    segments = [Segment(t, d, rng.standard_normal(2), rng.standard_normal(2))
                for t, d in zip(t0, durations)]
    return Trajectory(sampler="hhmc" if flow else "bps", horizon=float(sum(durations)),
                      mass=1.3, segments=segments, flow=flow)


@pytest.mark.parametrize("make", [
    lambda: hand_made_trajectory(None),
    lambda: hand_made_trajectory(HamiltonianFlow(np.array([[2.0, 0.5], [0.5, 1.0]]), 1.3)),
    lambda: simulate_zigzag(builtin_target("gaussian_iso", dim=1), T=50.0, seed=2),
    lambda: simulate_hhmc(builtin_target("gaussian_iso", dim=1),
                          MomentumModel(kind="gaussian"), resample_rate=0.3, T=50.0, seed=2),
    lambda: simulate_hhmc(builtin_target("double_well", poincare_const=2.0),
                          MomentumModel(kind="gaussian"), resample_rate=1.0, T=10.0, seed=2,
                          q0=np.array([1.0])),
    lambda: simulate_langevin(builtin_target("gaussian_iso", dim=2),
                              MomentumModel(kind="gaussian"), 1.0, 10.0, 0.01, 2),
], ids=["linear", "flow", "zigzag", "hhmc", "leapfrog-hhmc-double-well", "langevin"])
def test_time_average_matches_per_segment_panels(make):
    traj = make()
    fs = (lambda q: np.cos(q[..., 0]), lambda q: q[..., -1] ** 2)
    scalar = [time_average(traj, f) for f in fs]
    assert all(isinstance(x, float) for x in scalar)
    # the tuple form reads the path once and equals every scalar call bit for bit
    assert time_average(traj, fs) == tuple(scalar)
    if not traj.discretized:
        assert scalar == [per_segment_time_average(traj, f) for f in fs]


class TestDoubleWellThinning:
    def test_runs_and_certifies_bounds(self):
        t = builtin_target("double_well", beta=1.0, poincare_const=2.0)
        traj = simulate_zigzag(t, T=200.0, seed=1, q0=np.array([1.0]))
        assert any(e.kind == "flip" for e in traj.events)
        # both wells visited
        q2 = time_average(traj, lambda q: q[..., 0] ** 2)
        assert 0.3 < q2 < 3.0


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
