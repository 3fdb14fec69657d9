"""Confidence radii, minimal horizons, and bias bounds: exact identities."""

import math

import pytest

from hypoguard import (
    BernsteinPair,
    HypoParams,
    ObservableStats,
    bernstein_from_hypo,
    concentration_bound,
    confidence_radius,
    derived_constants,
    eta_T,
    min_time_for_radius,
    psi_star,
    transient_term,
    uq_bias_bound,
)

PAIR = BernsteinPair(v=22.5, b=18.0)


def test_concentration_bound_value():
    c, dmu, T, r = 0.8, 1.2, 100.0, 1.0
    expected = dmu / c * math.exp(-T * psi_star(PAIR, r))
    assert concentration_bound(PAIR, c, dmu, r, T) == pytest.approx(expected)


def test_radius_saturates_half_delta():
    # at r = r_pm each one-sided bound equals delta/2 when N = dmu_norm / c
    p = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=0.0, eps=0.5)
    stats = ObservableStats(mean=0.0, variance=1.0, sup_norm=1.0)
    dmu = 1.3
    pair, N, d = bernstein_from_hypo(p, stats, dmu_norm=dmu)
    delta, T = 0.1, 200.0
    r_minus, r_plus = confidence_radius(pair, pair, N, delta, T)
    assert concentration_bound(pair, d.c, dmu, r_plus, T) == pytest.approx(
        delta / 2.0, rel=1e-10
    )
    assert concentration_bound(pair, d.c, dmu, r_minus, T) == pytest.approx(
        delta / 2.0, rel=1e-10
    )


def test_radius_round_trip_with_min_time():
    N, delta = 1.5, 0.05
    for T in (10.0, 100.0, 1000.0):
        r_minus, r_plus = confidence_radius(PAIR, PAIR, N, delta, T)
        assert r_minus == r_plus
        assert min_time_for_radius(PAIR, N, delta, r_plus) == pytest.approx(
            T, rel=1e-10
        )


def test_radius_shrinks_with_time():
    N, delta = 1.5, 0.05
    radii = [confidence_radius(PAIR, PAIR, N, delta, T)[1] for T in (10, 100, 1000)]
    assert radii[0] > radii[1] > radii[2]


def test_asymmetric_pairs():
    plus = BernsteinPair(v=10.0, b=5.0)
    minus = BernsteinPair(v=20.0, b=5.0)
    r_minus, r_plus = confidence_radius(plus, minus, 1.0, 0.1, 50.0)
    assert r_minus > r_plus  # larger variance proxy gives the wider side


def test_eta_T_value_and_validation():
    assert eta_T(0.8, 1.2, 0.5, 10.0) == pytest.approx(
        (math.log(1.25) + math.log(1.2) + 0.5) / 10.0
    )
    with pytest.raises(ValueError):
        eta_T(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        eta_T(0.5, 0.9, 0.0, 1.0)
    with pytest.raises(ValueError):
        eta_T(0.5, 1.0, -0.1, 1.0)


def test_uq_bias_bound_formula():
    eta = 0.01
    lo, hi = uq_bias_bound(PAIR, PAIR, eta)
    expected = math.sqrt(2.0 * PAIR.v * eta) + PAIR.b * eta
    assert lo == pytest.approx(expected, rel=1e-12)
    assert hi == pytest.approx(expected, rel=1e-12)
    lo_t, hi_t = uq_bias_bound(PAIR, PAIR, eta, transient=0.3)
    assert hi_t == pytest.approx(expected + 0.3, rel=1e-12)


def test_uq_bias_bound_infinite_eta():
    assert uq_bias_bound(PAIR, PAIR, math.inf) == (math.inf, math.inf)


def test_nan_radius_and_rate_rejected():
    with pytest.raises(ValueError, match="^deviation r must be >= 0, got nan"):
        concentration_bound(PAIR, 0.9, 1.0, math.nan, 10.0)
    with pytest.raises(ValueError, match="^eta must be >= 0, got nan"):
        uq_bias_bound(PAIR, PAIR, math.nan)


def test_infinite_radius_has_zero_tail_and_zero_horizon():
    assert concentration_bound(BernsteinPair(v=1.0, b=1.0), 0.9, 1.0, math.inf, 10.0) == 0.0
    assert concentration_bound(BernsteinPair(v=1.0, b=0.0), 0.9, 1.0, math.inf, 10.0) == 0.0
    assert min_time_for_radius(PAIR, 1.2, 0.1, math.inf) == 0.0


@pytest.mark.parametrize("r", [1e-155, 1e-162, 1e-165, 1e-170, 1e-200])
def test_horizon_beyond_the_float_range_is_infinite(r):
    # psi*(r) ~ r^2 / (2v) underflows to 0 below r ~ 1e-162: the horizon is
    # inf, on the safe side, not a ZeroDivisionError
    assert min_time_for_radius(BernsteinPair(v=1.0, b=1.0), 1.2, 0.1, r) == math.inf


def test_transient_term_limits():
    p = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=0.0, eps=0.5)
    d = derived_constants(p)
    # T -> 0: factor -> 1, value -> (C/c) * dmu * sqrt(var)
    small = transient_term(d, 1.0, 4.0, 1e-9)
    assert small == pytest.approx(d.C / d.c * 2.0, rel=1e-6)
    # large T decays like alpha / T
    big = transient_term(d, 1.0, 4.0, 1e6)
    assert big == pytest.approx(d.C / d.c * 2.0 * d.alpha / 1e6, rel=1e-6)
    # monotone nonincreasing in T
    ts = [transient_term(d, 1.0, 4.0, T) for T in (0.1, 1.0, 10.0, 100.0)]
    assert all(a >= b for a, b in zip(ts, ts[1:]))
