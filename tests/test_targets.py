"""Target models, observables, and closed-form statistics vs quadrature oracles."""

import dataclasses
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from hypoguard import (
    MomentumModel,
    TargetModel,
    builtin_observable,
    builtin_target,
    estimate_poincare_1d,
    gaussian_chi_square_norm,
    linear_tilt,
    observable_stats_quadrature,
    scale_potential,
    simulate_bps,
    simulate_zigzag,
    stationary_expectation_1d,
)
from hypoguard.catalog import _normal_cdf, builtin_stats, gaussian_iso
from hypoguard.samplers import stream_rng
from hypoguard.targets import _tridiagonal_eigenvalue


def finite_diff_grad(V, q, h=1e-6):
    q = np.asarray(q, dtype=float)
    g = np.zeros_like(q)
    for i in range(len(q)):
        e = np.zeros_like(q)
        e[i] = h
        g[i] = (V(q + e) - V(q - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("make", [
    lambda: builtin_target("gaussian_iso", dim=1, h=2.0, beta=1.5),
    lambda: builtin_target("gaussian_iso", dim=3, h=0.7, beta=1.0),
    lambda: builtin_target("gaussian_aniso", H=[[2.0, 0.5], [0.5, 1.0]], beta=2.0),
    lambda: builtin_target("double_well", beta=1.0, poincare_const=2.0),
])
def test_gradient_matches_finite_differences(make):
    t = make()
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.normal(size=t.dim) * 2.0
        assert np.allclose(
            t.gradient(q), finite_diff_grad(t.potential, q), atol=1e-6
        )


BASE_1D = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)


@pytest.mark.parametrize("target", [
    builtin_target("gaussian_iso", dim=1, h=2.0, beta=1.5),
    builtin_target("gaussian_iso", dim=3, h=0.7, beta=1.0),
    builtin_target("gaussian_aniso", H=[[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 1.5]]),
    builtin_target("double_well", beta=1.0, poincare_const=2.0),
    linear_tilt(BASE_1D, 0.3),
    linear_tilt(builtin_target("double_well", beta=1.0, poincare_const=2.0), -0.2),
    scale_potential(BASE_1D, 1.7),
    scale_potential(builtin_target("gaussian_aniso", H=[[2.0, 0.5], [0.5, 1.0]]), 0.6),
], ids=lambda t: t.name)
def test_batched_gradient_matches_rows(target):
    # the Langevin engine calls the gradient on (replicas, dim) batches
    qs = np.random.default_rng(3).normal(size=(7, target.dim)) * 2.0
    batch = target.gradient(qs)
    assert batch.shape == qs.shape
    for q, g in zip(qs, batch):
        assert np.allclose(g, target.gradient(q), rtol=1e-14, atol=1e-14)


def test_tilt_and_scale_gradients():
    base = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
    for alt in (linear_tilt(base, 0.3), scale_potential(base, 1.7)):
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.normal(size=1) * 2.0
            assert np.allclose(
                alt.gradient(q), finite_diff_grad(alt.potential, q), atol=1e-6
            )


def test_scaled_double_well_thins_under_scaled_bound():
    # factor * V has Hessian bound factor * hessian_bound; an unscaled bound
    # let the clock's rate exceed its certified envelope
    well = builtin_target("double_well", beta=1.0, poincare_const=1.0)
    scaled = scale_potential(well, 4.0)
    center = np.array([0.3])
    assert scaled.hessian_bound(center, 0.5) == 4.0 * well.hessian_bound(center, 0.5)
    traj = simulate_zigzag(scaled, 200.0, 3, refresh_rate=1.0, q0=[0.0])
    assert len(traj.segments)


def test_gaussian_stationary_moments():
    t = builtin_target("gaussian_iso", dim=2, h=2.0, beta=0.5)
    assert np.allclose(t.stationary_cov(), np.eye(2) / (2.0 * 0.5))
    assert t.marginal_var(0) == pytest.approx(1.0)
    rng = np.random.default_rng(9)
    qs = t.sample_position(rng, size=200_000)
    assert np.allclose(qs.mean(axis=0), 0.0, atol=0.02)
    assert np.allclose(np.cov(qs.T), t.stationary_cov(), atol=0.02)


def test_aniso_sampling_matches_cov():
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    t = builtin_target("gaussian_aniso", H=H, beta=1.0)
    assert np.allclose(t.stationary_cov(), np.linalg.inv(H))
    rng = np.random.default_rng(10)
    qs = t.sample_position(rng, size=200_000)
    assert np.allclose(np.cov(qs.T), np.linalg.inv(H), atol=0.03)


@pytest.mark.parametrize("beta", [0.5, 1.5, 3.0, 6.0])
def test_well_draws_meet_the_quadrature_cdf(beta):
    # Kolmogorov-Smirnov on 20 000 exact draws against the Gibbs CDF, by
    # quadrature on a grid of step 0.02 (linear interpolation moves it < 1e-4)
    well = builtin_target("double_well", beta=beta, poincare_const=1.0)
    expect = stationary_expectation_1d(well)
    grid = np.linspace(-4.0, 4.0, 401)
    cdf = [expect(lambda q, x=x: (q[:, 0] <= x).astype(float), points=(x,)) for x in grid]
    qs = well.sample_position(np.random.default_rng(2019), size=20_000)
    assert qs.shape == (20_000, 1)
    assert stats.kstest(qs[:, 0], lambda x: np.interp(x, grid, cdf)).pvalue > 0.01


@pytest.mark.parametrize("beta", [0.05, 0.5, 1.5, 3.0, 6.0, 100.0])
def test_well_envelope_peaks_where_its_closed_form_says(beta):
    # the log acceptance ratio q^2 / (2 s^2) - beta V(q) - log M, s = 1.5, is
    # at most 0 on a grid of step 1e-5, and 0 at its peak q^2 = 1 + 1 / (beta s^2)
    s, well = 1.5, builtin_target("double_well", beta=beta, poincare_const=1.0)
    log_m = 1.0 / (2.0 * s * s) + 1.0 / (4.0 * beta * s ** 4)
    q = np.linspace(-8.0, 8.0, 1_600_001)
    ratio = q * q / (2.0 * s * s) - beta * well.potential(q[:, None]) - log_m
    peak = math.sqrt(1.0 + 1.0 / (beta * s * s))
    assert ratio.max() <= 1e-12
    assert abs(abs(q[np.argmax(ratio)]) - peak) <= 1e-5
    at_peak = peak * peak / (2.0 * s * s) - beta * well.potential(np.array([peak])) - log_m
    assert abs(at_peak) <= 1e-12


def test_well_copies_draw_exactly_until_the_potential_breaks_the_envelope():
    well = builtin_target("double_well", beta=1.5, poincare_const=1.0)
    copy = dataclasses.replace(well, poincare_const=2.0)
    draws = [t.sample_position(np.random.default_rng(5), size=50) for t in (well, copy)]
    assert np.array_equal(*draws)
    flat = dataclasses.replace(well, potential=lambda q: well.potential(q) / 2.0)
    with pytest.raises(ValueError, match=r"^target 'double_well': log acceptance ratio "
                                         r"\S+ at q = \S+ exceeds the double-well envelope$"):
        flat.sample_position(np.random.default_rng(5), size=50)


def test_well_too_cold_for_its_proposal_is_rejected_before_drawing():
    # at beta 1e-3, log M = 49.6: a draw would take about 1e21 proposals
    rng = np.random.default_rng(5)
    well = builtin_target("double_well", beta=1e-3, poincare_const=1.0)
    with pytest.raises(ValueError, match=r"^target 'double_well' at beta 0.001: an exact draw "
                                         r"takes about exp\(49.6\) proposals; pass a start"):
        well.sample_position(rng)
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
def test_samplers_start_the_well_from_its_exact_draw(sampler):
    # with no start given, q0 is the well's own draw from the init stream
    well = builtin_target("double_well", beta=1.5, poincare_const=1.0)
    traj = (simulate_zigzag(well, 20.0, 3, 1.0) if sampler == "zigzag" else
            simulate_bps(well, MomentumModel(kind="gaussian", beta=1.5), 1.0, 20.0, 3))
    assert traj.segments.q0[0].tolist() == well.sample_position(stream_rng(3, "init")).tolist()
    assert np.all(np.isfinite(traj.segments.q0)) and len(traj.kinds) > 0


WELL = builtin_target("double_well", beta=1.5, poincare_const=1.0)


@pytest.mark.parametrize("target", [
    scale_potential(WELL, 1.2),
    linear_tilt(WELL, 0.3),
    TargetModel(name="quartic", dim=1, beta=1.0, poincare_const=1.0,
                potential=lambda q: np.asarray(q)[..., 0] ** 4 / 4.0,
                gradient=lambda q: np.asarray(q, dtype=float) ** 3,
                hessian_bound=lambda center, radius: 3.0 * (abs(center[0]) + radius) ** 2),
], ids=lambda t: t.name)
def test_a_target_without_an_exact_draw_asks_for_a_start(target):
    with pytest.raises(ValueError, match=f"^target '{re.escape(target.name)}' has no exact "
                                         "stationary draw; pass a start position$"):
        simulate_zigzag(target, 5.0, 1, 1.0)
    assert len(simulate_zigzag(target, 5.0, 1, 1.0, q0=[0.5]).kinds) > 0


@pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0])
def test_scale_potential_rejects_a_factor_not_finite_and_positive(factor):
    with pytest.raises(ValueError, match=f"^factor must be finite and > 0, got {factor}$"):
        scale_potential(WELL, factor)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_linear_tilt_rejects_a_delta_that_is_not_finite(delta):
    with pytest.raises(ValueError, match=f"^delta must be finite, got {delta}$"):
        linear_tilt(WELL, delta)


def test_double_well_requires_poincare():
    with pytest.raises(ValueError):
        builtin_target("double_well", beta=1.0)


def test_double_well_shape():
    t = builtin_target("double_well", beta=2.0, poincare_const=2.0)
    assert t.potential(np.array([1.0])) == pytest.approx(0.0)
    assert t.potential(np.array([-1.0])) == pytest.approx(0.0)
    assert t.potential(np.array([0.0])) == pytest.approx(0.25)
    assert not t.is_quadratic


@pytest.mark.parametrize("name,params", [
    ("cos", {"omega": 1.0}),
    ("cos", {"omega": 2.5}),
    ("sin", {"omega": 1.3}),
    ("indicator", {"a": -0.7, "b": 0.4}),
    ("clipped_coord", {"L": 1.2}),
])
def test_observable_stats_match_quadrature(name, params):
    t = builtin_target("gaussian_iso", dim=1, h=1.5, beta=0.8)
    obs = builtin_observable(name, t, **params)
    oracle = observable_stats_quadrature(obs.f, t)
    # adaptive quadrature loses a digit on the discontinuous indicator
    tol = 1e-6 if name == "indicator" else 1e-8
    assert obs.stats.mean == pytest.approx(oracle.mean, abs=tol)
    assert obs.stats.variance == pytest.approx(oracle.variance, abs=tol)
    # sup_norm dominates the centered observable on a wide grid
    grid = np.linspace(-12.0, 12.0, 10_001)
    vals = np.abs(np.array([obs.f(np.array([x])) for x in grid]) - obs.stats.mean)
    assert vals.max() <= obs.stats.sup_norm + 1e-12


def test_unbounded_observable_rejected():
    t = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
    with pytest.raises(ValueError):
        builtin_observable("coord", t)


@pytest.mark.parametrize("name,params", [
    ("gaussian_iso", {"dim": 1, "hh": 2.0}),          # misspelt h, formerly ignored
    ("gaussian_aniso", {"H": [[1.0]], "dim": 1}),
    ("double_well", {"poincare_const": 1.0, "omega": 1.0}),
    ("gaussian_iso", {"h": math.inf}),
    ("gaussian_aniso", {"H": [[1.0, 0.0], [0.0, math.inf]]}),
    ("gaussian_aniso", {"H": [[1.0]], "beta": -1.0}),
    ("double_well", {"poincare_const": 1.0, "beta": 0.0}),
    ("gaussian", {}),
    ("gaussian_iso", {"dim": 1.5}),                   # formerly truncated to dim 1
    ("gaussian_iso", {"h": True}),                    # JSON true, formerly read as h = 1
    ("gaussian_aniso", {"H": [[True]]}),
    ("double_well", {"poincare_const": True}),
])
def test_bad_target_parameters_rejected(name, params):
    with pytest.raises(ValueError):
        builtin_target(name, **params)


@pytest.mark.parametrize("name,params", [
    ("cos", {"omgea": 2.0}),                          # misspelt omega, formerly ignored
    ("indicator", {"a": 0.0, "b": 1.0, "L": 1.0}),
    ("cos", {"omega": math.inf}),
    ("cos", {"coord": 3}),                            # formerly an IndexError mid-run
    ("sin", {"coord": -1}),
    ("clipped_coord", {"L": 1.0, "coord": 0.0}),
    ("square", {}),
    ("cos", {"omega": True}),
    ("clipped_coord", {"L": np.True_}),
])
def test_bad_observable_parameters_rejected(name, params):
    t = builtin_target("gaussian_iso", dim=2, h=1.0, beta=1.0)
    with pytest.raises(ValueError):
        builtin_observable(name, t, **params)


def test_numpy_parameters_pass_the_check():
    t = builtin_target("gaussian_aniso", H=np.array([[2.0, 0.5], [0.5, 1.0]]), beta=np.float64(2))
    assert builtin_observable("cos", t, coord=np.int64(1), omega=np.float32(0.5)).stats.mean < 1


def test_gaussian_iso_law_is_the_model_bit_for_bit():
    # the NumPy-free law that ci and constants read: 1/(beta h) equals the
    # diagonal of inv(h I)/beta, and every observable's stats follow
    rng = np.random.default_rng(11)
    for _ in range(500):
        params = {"dim": int(rng.integers(1, 7)), "h": float(np.exp(rng.uniform(-8, 8))),
                  "beta": float(np.exp(rng.uniform(-8, 8)))}
        law, model = gaussian_iso(**params), builtin_target("gaussian_iso", **params)
        assert law.dim == model.dim
        for coord in range(law.dim):
            assert law.marginal_var(coord) == model.marginal_var(coord)
    for name, params in [("sin", {"omega": 1.3}), ("cos", {}), ("indicator", {"a": -0.7, "b": 0.4}),
                         ("clipped_coord", {"L": 1.2})]:
        law = gaussian_iso(dim=2, h=1.5, beta=0.8)
        model = builtin_target("gaussian_iso", dim=2, h=1.5, beta=0.8)
        assert builtin_stats(name, law, 1, **params)[1] == builtin_observable(
            name, model, 1, **params).stats


def _upper_tail(x) -> mpmath.mpf:
    """1 - Phi(x) at the working precision."""
    return mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def test_normal_cdf_is_as_accurate_as_scipys_ndtr():
    # a 50-digit oracle on 10^4 points in [-38, 38], plus points around
    # |x| = 1/sqrt(2), where scipy's ndtr switches from erf to erfc; below
    # x = -37.5 Phi is subnormal, so the relative errors are also compared
    # where it is a normal float
    from scipy.special import ndtr

    rng = np.random.default_rng(26)
    near = [sign * (math.sqrt(0.5) + k * 1e-4) for k in range(-100, 101) for sign in (1, -1)]
    xs = rng.uniform(-38.0, 38.0, 10_000).tolist() + near
    with mpmath.workdps(50):
        exact = [_upper_tail(-x) for x in xs]

        def worst(cdf, smallest):
            return max(float(abs(cdf(x) - e) / e) for x, e in zip(xs, exact) if e >= smallest)

        for smallest in (0.0, sys.float_info.min):
            assert worst(_normal_cdf, smallest) <= worst(lambda x: float(ndtr(x)), smallest)


def test_indicator_stats_meet_a_50_digit_oracle_far_out():
    # [a, b] on N(0, 1) with ends on a half-unit grid in [-9, 9]: with both
    # ends in the upper tail Phi(b) - Phi(a) cancels (7% off on [8, 9]), and
    # 1 - mean rounded the variance on [-9, 9] to 0
    grid = [k / 2 for k in range(-18, 19)]
    pairs = [(a, b) for a in grid for b in grid if a < b]
    assert {(5.0, 6.0), (8.0, 9.0), (-9.0, -8.0), (-0.5, 0.5), (-9.0, 9.0)} <= set(pairs)
    law = gaussian_iso(dim=1, h=1.0, beta=1.0)
    with mpmath.workdps(50):
        for a, b in pairs:
            stats = builtin_stats("indicator", law, a=a, b=b)[1]
            mean = _upper_tail(a) - _upper_tail(b)
            variance = mean * (1 - mean)
            assert abs(stats.mean - mean) <= 1e-14 * mean, (a, b)
            assert abs(stats.variance - variance) <= 1e-14 * variance, (a, b)


def test_clipped_coord_variance_meets_a_50_digit_oracle():
    # E[clip(X, -L, L)^2] for X ~ N(0, s^2) and L/s from 1e-6 to 12, more
    # densely around the switch to the series at L/s = 0.5: the closed form
    # s^2 (2 Phi(z) - 1) - 2 L s phi(z) of E[X^2 1{|X| <= L}], z = L/s,
    # cancels to its z^3 term (5.5e-9 relative error at L = 1e-4 on N(0, 1),
    # and a variance above L^2 at L = 1e-6)
    zs = [10 ** (-6 + k * (math.log10(12) + 6) / 200) for k in range(201)]
    zs += [0.5 + k * 1e-3 for k in range(-10, 11)]
    for h in (1.0, 0.3, 7.0):
        law = gaussian_iso(dim=1, h=h, beta=1.0)
        for z in zs:
            L = z / math.sqrt(h)
            got = builtin_stats("clipped_coord", law, L=L)[1].variance
            with mpmath.workdps(50):
                L_mp, s = mpmath.mpf(L), 1 / mpmath.sqrt(h)
                inner = (s * s * mpmath.erf(L_mp / (s * mpmath.sqrt(2)))
                         - 2 * L_mp * s * mpmath.npdf(L_mp / s))
                exact = inner + 2 * L_mp * L_mp * _upper_tail(L_mp / s)
                assert abs(got - exact) <= 1e-14 * exact, (h, z)


def test_chi_square_norm_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        sigma2 = rng.uniform(0.3, 3.0)
        s2 = rng.uniform(0.1, 1.9) * sigma2  # must stay below 2 sigma^2
        mu0 = rng.uniform(-1.5, 1.5)

        def ratio_sq(x):
            # (dmu/dmu*)^2 dmu* = mu(x)^2 / mustar(x), in log space for stability
            log_mu = -0.5 * (x - mu0) ** 2 / s2 - 0.5 * math.log(2 * math.pi * s2)
            log_mustar = -0.5 * x * x / sigma2 - 0.5 * math.log(2 * math.pi * sigma2)
            return math.exp(2.0 * log_mu - log_mustar)

        oracle, _ = integrate.quad(ratio_sq, -60, 60, limit=400)
        assert gaussian_chi_square_norm(mu0, s2, sigma2) == pytest.approx(
            math.sqrt(oracle), rel=1e-8
        )


def test_chi_square_norm_meets_a_50_digit_oracle():
    # sigma2 / sqrt(s2 d) exp(mu0^2 / d), d = 2 sigma2 - s2, at 50 digits, on
    # random starts and on starts far narrower than the target, down to a
    # subnormal s2: the former 1 / (s2 s2 a) - 1 / s2 form lost 1.6e-11 of
    # the norm, divided by zero at s2 = 1e-300 and gave NaN at 1e-310
    rng = np.random.default_rng(32)
    cases = []
    for _ in range(2000):
        sigma2 = math.exp(rng.uniform(-5.0, 5.0))
        cases.append((rng.uniform(-3.0, 3.0) * math.sqrt(sigma2),
                      rng.uniform(1e-3, 1.999) * sigma2, sigma2))
    cases += [(0.0, 1e-300, 1.0), (0.0, 1e-310, 1.0), (0.5, 5e-324, 1.0), (-2.0, 1e-320, 3.0)]
    with mpmath.workdps(50):
        for mu0, s2, sigma2 in cases:
            d = 2 * mpmath.mpf(sigma2) - s2
            square = sigma2 / mpmath.sqrt(s2 * d) * mpmath.exp(mpmath.mpf(mu0) ** 2 / d)
            if square > sys.float_info.max:
                with pytest.raises(ValueError, match="overflows"):
                    gaussian_chi_square_norm(mu0, s2, sigma2)
                continue
            exact = mpmath.sqrt(square)
            assert abs(gaussian_chi_square_norm(mu0, s2, sigma2) - exact) <= 1e-13 * exact, (
                mu0, s2, sigma2)


def test_chi_square_norm_of_the_target_itself_is_not_below_1():
    # the norm is at least 1; sigma2 / (sqrt(sigma2) sqrt(sigma2)) rounds
    # below 1 for a quarter of the variances, which bernstein_from_hypo rejects
    rng = np.random.default_rng(33)
    for sigma2 in np.exp(rng.uniform(-700.0, 700.0, 2000)).tolist():
        assert 1.0 <= gaussian_chi_square_norm(0.0, sigma2, sigma2) <= 1.0 + 2e-16, sigma2


def test_chi_square_norm_diverges():
    with pytest.raises(ValueError):
        gaussian_chi_square_norm(0.0, 2.0, 1.0)  # s^2 >= 2 sigma^2
    assert gaussian_chi_square_norm(0.0, 1.0, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("mu0", [1000.0, -1000.0, 32.627])
def test_chi_square_norm_that_overflows_is_a_value_error(mu0):
    # the norm^2 is about 1.155 exp(mu0^2 / 1.5) at s2 = 0.5: at |mu0| = 1000
    # math.exp overflows, and at 32.627 the exp is finite but the product is not
    with pytest.raises(ValueError, match=r"^\|\|dmu/dmu\*\|\| overflows: initial mean"):
        gaussian_chi_square_norm(mu0, 0.5, 1.0)
    assert math.isfinite(gaussian_chi_square_norm(32.62, 0.5, 1.0))


@pytest.mark.parametrize("sigma2", [1e308, math.inf])
def test_chi_square_norm_of_a_target_variance_that_overflows_is_a_value_error(sigma2):
    # 2 sigma2 - s2 is not finite: the closed form would give 0
    with pytest.raises(ValueError, match=r"^\|\|dmu/dmu\*\|\| overflows: 2 \* target variance"):
        gaussian_chi_square_norm(0.0, 1.0, sigma2)


def test_momentum_models():
    rng = np.random.default_rng(33)
    g = MomentumModel(kind="gaussian", mass=2.0, beta=0.5)
    assert g.kappa_p == pytest.approx(1.0 / (2.0 * 0.5))
    ps = np.array([g.sample(rng, 3) for _ in range(50_000)])
    assert np.allclose(ps.mean(axis=0), 0.0, atol=0.03)
    assert np.allclose(ps.var(axis=0), 2.0 / 0.5, atol=0.08)
    r = MomentumModel(kind="rademacher", mass=1.0, beta=1.0)
    assert r.kappa_p == pytest.approx(1.0)
    vs = np.array([r.sample(rng, 2) for _ in range(2000)])
    assert set(np.unique(vs)) == {-1.0, 1.0}
    with pytest.raises(ValueError):
        MomentumModel(kind="uniform", mass=1.0, beta=1.0)


@pytest.mark.parametrize("field", ["mass", "beta"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_momentum_model_rejects_a_non_finite_or_non_positive_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
        MomentumModel(kind="gaussian", **{field: value})


@pytest.mark.parametrize("d", [1, 2, 3, 50])
def test_rademacher_sample_takes_the_bits_of_a_sized_draw(d):
    # small d draws per component; the values and what is left of the
    # stream must be those of one sized draw
    r = MomentumModel(kind="rademacher")
    rng, twin = stream_rng(8, "refresh"), stream_rng(8, "refresh")
    for _ in range(100):
        v = r.sample(rng, d)
        assert v.shape == (d,) and v.dtype == np.float64
        assert np.array_equal(v, twin.integers(0, 2, size=d) * 2.0 - 1.0)
        assert rng.exponential() == twin.exponential()


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
def test_one_draw_takes_the_bits_of_a_one_component_sized_draw(kind):
    # the d = 1 zig-zag and BPS loops refresh through draw(); it must leave
    # the stream where numpy's sized call of one component leaves it
    mom = MomentumModel(kind=kind, mass=2.5, beta=0.7)
    sized = {"gaussian": lambda rng, d: rng.standard_normal(d) * math.sqrt(2.5 / 0.7),
             "rademacher": lambda rng, d: rng.integers(0, 2, size=d) * 2.0 - 1.0}[kind]
    rng, twin = stream_rng(9, "refresh"), stream_rng(9, "refresh")
    for _ in range(100):
        x = mom.draw(rng)
        assert type(x) is float and [x] == sized(twin, 1).tolist()
        assert rng.exponential() == twin.exponential()
    for d in (1, 2, 3):
        v = mom.sample(rng, d)
        assert v.dtype == np.float64 and np.array_equal(v, sized(twin, d))


@pytest.mark.parametrize("seed", [3, 10])
def test_rademacher_draw_takes_the_bits_of_integers(seed):
    # draw() reads bit 31 of one 32-bit draw, as integers(0, 2) does; runs
    # of 1, 2 and 3 draws between exponentials put each draw on either half
    # of the generator's buffered 64-bit output
    mom = MomentumModel(kind="rademacher")
    rng, twin = stream_rng(seed, "refresh"), stream_rng(seed, "refresh")
    draws, expected = [], []
    for k in range(10_000):
        for _ in range(1 + k % 3):
            draws.append(mom.draw(rng))
            expected.append((-1.0, 1.0)[twin.integers(0, 2)])
        assert rng.exponential() == twin.exponential()
    assert draws == expected and set(draws) == {-1.0, 1.0}


def test_poincare_estimate_gaussian():
    # the estimator and builtin_target share one convention: the spectral gap
    t = builtin_target("gaussian_iso", dim=1, h=2.0, beta=1.0)
    assert estimate_poincare_1d(t) == pytest.approx(t.poincare_const, rel=1e-2)


def dense_poincare_1d(target, lo=-6.0, hi=6.0, n=2000):
    """The generalized dense eigenproblem K g = lambda M g that the
    tridiagonal solve of estimate_poincare_1d replaces."""
    from scipy.linalg import eigh

    x = np.linspace(lo, hi, n)
    dx = x[1] - x[0]
    w = np.exp(-target.beta * np.array([float(target.potential(np.array([xi]))) for xi in x]))
    w_mid = 0.5 * (w[:-1] + w[1:])
    K = np.zeros((n, n))
    idx = np.arange(n - 1)
    K[idx, idx] += w_mid / dx
    K[idx + 1, idx + 1] += w_mid / dx
    K[idx, idx + 1] -= w_mid / dx
    K[idx + 1, idx] -= w_mid / dx
    return float(eigh(K, np.diag(w * dx), eigvals_only=True, subset_by_index=[0, 1])[1])


@pytest.mark.parametrize("target", [
    builtin_target("gaussian_iso", dim=1, h=2.0, beta=1.0),
    builtin_target("double_well", beta=1.5, poincare_const=1.0),
], ids=lambda t: t.name)
def test_poincare_estimate_matches_dense_solve(target):
    assert estimate_poincare_1d(target) == pytest.approx(dense_poincare_1d(target), rel=1e-9)


def test_poincare_estimate_where_the_density_underflows():
    # exp(-beta V) underflows to 0 on part of [-6, 6] for both targets
    well = estimate_poincare_1d(builtin_target("double_well", beta=3.0, poincare_const=1.0))
    assert math.isfinite(well) and well > 0.0
    stiff = builtin_target("gaussian_iso", dim=1, h=50.0, beta=1.0)
    assert estimate_poincare_1d(stiff) == pytest.approx(50.0, rel=1e-3)


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("a,b", [(2.0, -1.0), (-1.5, 0.75)])
def test_sturm_bisection_meets_the_toeplitz_spectrum(n, a, b):
    # T = tridiag(b, a, b) has eigenvalues a + 2b cos(k pi/(n+1)), k = 1..n.
    # The Gershgorin interval is [a - 2|b|, a + 2|b|], so the first bisection
    # point is a itself: the first pivot a - x is an exact zero, and for odd
    # n the point is also the middle eigenvalue
    exact = sorted(a + 2.0 * b * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
    for k, lam in enumerate(exact):
        assert _tridiagonal_eigenvalue([a] * n, [b] * (n - 1), k) == pytest.approx(lam, abs=1e-14)


def _mp_gibbs_mean(potential, beta, g, breaks):
    """E[g] under exp(-beta V) on [-40, 40], by 40-digit tanh-sinh quadrature
    split at ``breaks``."""
    with mpmath.workdps(40):
        w = lambda x: mpmath.exp(-beta * potential(x))  # noqa: E731
        pts = [-40, *breaks, 40]
        return mpmath.quad(lambda x: g(x) * w(x), pts) / mpmath.quad(w, pts)


def _in_band(q):
    return ((0.5 <= q[:, 0]) & (q[:, 0] <= 1.5)).astype(float)


WELL_BREAKS = [-1.5, -1, -0.5, 0, 0.5, 1, 1.5]
WELL_CASES = {
    "1": (lambda q: np.ones(len(q)), lambda x: 1, {}),
    "q^2": (lambda q: q[:, 0] * q[:, 0], lambda x: x * x, {}),
    "cos": (lambda q: np.cos(q[:, 0]), mpmath.cos, {}),
    "1[0.5,1.5]": (_in_band, lambda x: 1 if 0.5 <= x <= 1.5 else 0, {}),
    "1[0.5,1.5] cut": (_in_band, lambda x: 1 if 0.5 <= x <= 1.5 else 0,
                       {"points": (0.5, 1.5)}),
}


@pytest.mark.parametrize("beta", [1.0, 1.5, 3.0, 6.0])
@pytest.mark.parametrize("name", WELL_CASES)
def test_well_expectations_meet_a_40_digit_oracle(beta, name):
    # QUADPACK from one panel on [-40, 40] returned 0 for q^2 at beta >= 3
    # and for the uncut indicator at every beta
    g, g_mp, options = WELL_CASES[name]
    target = builtin_target("double_well", beta=beta, poincare_const=1.0)
    got = stationary_expectation_1d(target)(g, **options)
    oracle = _mp_gibbs_mean(lambda x: (x * x - 1) ** 2 / 4, beta, g_mp, WELL_BREAKS)
    assert abs(got - oracle) <= 1e-12


@pytest.mark.parametrize("h", [1.0, 100.0, 1e4])
@pytest.mark.parametrize("mu", [0.0, -0.37])
def test_narrow_gaussian_second_moment_meets_a_40_digit_oracle(h, mu):
    # N(mu, 1/h) as the tilt V = h q^2/2 + delta q of the centred law, delta = -mu h;
    # one QUADPACK panel missed the whole mass at h >= 100
    delta = -mu * h
    alt = linear_tilt(builtin_target("gaussian_iso", dim=1, h=h, beta=1.0), delta)
    got = stationary_expectation_1d(alt)(lambda q: q[:, 0] * q[:, 0])
    with mpmath.workdps(40):
        centre = -mpmath.mpf(delta) / h
        oracle = _mp_gibbs_mean(lambda x: h * x * x / 2 + delta * x, 1.0, lambda x: x * x,
                                [centre - 0.5, centre, centre + 0.5])
        assert abs(oracle - (centre ** 2 + 1 / mpmath.mpf(h))) <= 1e-30
    assert abs(got - oracle) <= 1e-12


@pytest.mark.parametrize("integrand,shape", [
    (lambda q: np.cos(q), "(15, 1)"),  # a column, once broadcast to (15, 15)
    (lambda q: 1.0, "()"),
    (lambda q: np.cos(q[:3, 0]), "(3,)"),
], ids=["column", "scalar", "short"])
def test_expectation_rejects_an_integrand_of_the_wrong_shape(integrand, shape):
    expect = stationary_expectation_1d(BASE_1D)
    message = f"g of positions of shape (15, 1) must have shape (15,), not {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        expect(integrand)
    assert expect(lambda q: np.cos(q[:, 0])) == pytest.approx(math.exp(-0.5), abs=1e-14)
