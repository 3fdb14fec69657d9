"""Sub-gamma log-MGF algebra: closed forms against independent numeric oracles."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoguard import (BernsteinPair, concentration_bound, min_time_for_radius, psi, psi_star,
                        psi_star_inv)


def legendre_sup(pair: BernsteinPair, r: float) -> float:
    """Numeric oracle: sup over lam in [0, 1/b) of lam*r - psi(lam).

    Coarse grid scan followed by golden-section refinement.
    """
    hi = 1.0 / pair.b if pair.b > 0 else 50.0 / math.sqrt(pair.v) + 50.0
    grid = np.linspace(0.0, hi, 4001)[:-1]
    vals = np.array([lam * r - psi(pair, lam) for lam in grid])
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    up = grid[min(k + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    for _ in range(200):
        x1 = b - phi * (b - a)
        x2 = a + phi * (b - a)
        f1 = x1 * r - psi(pair, x1)
        f2 = x2 * r - psi(pair, x2)
        if f1 < f2:
            a = x1
        else:
            b = x2
    lam = 0.5 * (a + b)
    return lam * r - psi(pair, lam)


def test_psi_known_values():
    pair = BernsteinPair(v=2.0, b=1.0)
    assert psi(pair, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert psi(pair, 0.0) == 0.0
    assert psi(pair, 1.0) == math.inf
    assert psi(pair, 1.5) == math.inf


def test_psi_star_known_value():
    pair = BernsteinPair(v=2.0, b=1.0)
    assert psi_star(pair, 2.0) == pytest.approx(2.0 * (2.0 - math.sqrt(3.0)), rel=1e-12)


def test_psi_star_inv_known_value():
    pair = BernsteinPair(v=2.0, b=1.0)
    assert psi_star_inv(pair, 2.0) == pytest.approx(math.sqrt(8.0) + 2.0, rel=1e-12)


def test_psi_star_zero_variance_limit():
    pair = BernsteinPair(v=0.0, b=2.0)
    assert psi_star(pair, 3.0) == pytest.approx(1.5, rel=1e-15)
    assert psi_star(pair, 0.0) == 0.0


def test_degenerate_pair_rejected():
    with pytest.raises(ValueError):
        psi_star(BernsteinPair(v=0.0, b=0.0), 1.0)
    with pytest.raises(ValueError):
        BernsteinPair(v=-1.0, b=0.0)
    with pytest.raises(ValueError):
        BernsteinPair(v=1.0, b=-0.5)


@pytest.mark.parametrize("field, value", [("v", math.inf), ("v", math.nan), ("b", math.inf),
                                          ("b", math.nan)])
def test_non_finite_pair_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BernsteinPair(**{"v": 1.0, "b": 1.0, field: value})


@pytest.mark.parametrize("func, name", [(psi, "lambda"), (psi_star, "deviation r"),
                                        (psi_star_inv, "eta")])
@pytest.mark.parametrize("value", [-1.0, math.nan], ids=["negative", "nan"])
def test_negative_or_nan_argument_rejected_by_name(func, name, value):
    # NaN passes a check written as x < 0, and every result would be NaN
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value}"):
        func(BernsteinPair(v=2.0, b=1.0), value)


@pytest.mark.parametrize("v, b", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
def test_psi_star_at_infinity_is_infinite(v, b):
    # the closed form is inf/inf, or 0*inf at b = 0; the limit is inf
    assert psi_star(BernsteinPair(v=v, b=b), math.inf) == math.inf


PAIRS = [(1.0, 1.0), (0.5, 0.9), (3.7, 0.01), (1e10, 0.0), (1e-3, 40.8), (7.14, 40.8)]


@pytest.mark.parametrize("v, b", PAIRS)
@pytest.mark.parametrize("r", [1e154, 1e155, 1e200, 1e308])
def test_psi_star_past_overflow_meets_a_50_digit_oracle_from_below(v, b, r):
    # the closed form's r^2 or 2 b r / v overflows here (it gave inf or nan)
    with mpmath.workdps(50):
        mv, mb, mr = mpmath.mpf(v), mpmath.mpf(b), mpmath.mpf(r)
        exact = 2 * mr * mr / (mv * (1 + mpmath.sqrt(1 + 2 * mb * mr / mv)) ** 2)
        got = psi_star(BernsteinPair(v, b), r)
        assert math.isfinite(got) and got <= exact
        if exact < sys.float_info.max:
            assert got >= exact * (1 - mpmath.mpf(2) ** -45)
        else:
            assert got >= sys.float_info.max * (1 - 2.0 ** -45)


def test_psi_star_keeps_the_closed_form_bits_in_the_normal_range():
    for v, b in PAIRS + [(0.02, 0.0), (100.0, 50.0)]:
        for r in np.geomspace(1e-150, 1e150, 601).tolist() + [0.0, 0.09, 1.434]:
            closed = 2.0 * r * r / (v * (1.0 + math.sqrt(1.0 + 2.0 * b * r / v)) ** 2)
            assert psi_star(BernsteinPair(v, b), r) == closed


def test_bounds_past_overflow_are_not_nan():
    pair = BernsteinPair(1.0, 1.0)
    assert concentration_bound(pair, 0.9, 1.0, 1e308, 10.0) == 0.0
    assert 0.0 < min_time_for_radius(pair, 1.26, 0.1, 1e308) < 1e-307


def test_psi_star_matches_legendre_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        pair = BernsteinPair(v=rng.uniform(0.1, 10.0), b=rng.uniform(0.0, 5.0))
        r = rng.uniform(0.01, 10.0)
        assert psi_star(pair, r) == pytest.approx(legendre_sup(pair, r), rel=1e-8)


def test_round_trip_inverse():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pair = BernsteinPair(v=rng.uniform(0.1, 10.0), b=rng.uniform(0.0, 5.0))
        eta = rng.uniform(1e-6, 10.0)
        r = psi_star_inv(pair, eta)
        assert psi_star(pair, r) == pytest.approx(eta, rel=1e-10)


@given(
    v=st.floats(0.01, 100.0),
    b=st.floats(0.0, 50.0),
    r1=st.floats(0.001, 50.0),
    r2=st.floats(0.001, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_psi_star_monotone_in_r(v, b, r1, r2):
    pair = BernsteinPair(v=v, b=b)
    lo, hi = sorted((r1, r2))
    assert psi_star(pair, lo) <= psi_star(pair, hi) + 1e-12


@given(
    v=st.floats(0.01, 100.0),
    b=st.floats(0.0, 50.0),
    r1=st.floats(0.001, 50.0),
    r2=st.floats(0.001, 50.0),
    t=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_psi_star_convex_in_r(v, b, r1, r2, t):
    pair = BernsteinPair(v=v, b=b)
    mid = t * r1 + (1.0 - t) * r2
    chord = t * psi_star(pair, r1) + (1.0 - t) * psi_star(pair, r2)
    assert psi_star(pair, mid) <= chord + 1e-9 * max(1.0, abs(chord))


@given(
    v=st.floats(0.01, 100.0),
    b=st.floats(0.001, 50.0),
    eta1=st.floats(1e-6, 50.0),
    eta2=st.floats(1e-6, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_psi_star_inv_monotone_in_eta(v, b, eta1, eta2):
    pair = BernsteinPair(v=v, b=b)
    lo, hi = sorted((eta1, eta2))
    assert psi_star_inv(pair, lo) <= psi_star_inv(pair, hi) + 1e-12


def test_psi_star_scales_with_variance():
    # v -> s^2 v, b -> s b  rescales the deviation variable: psi*(s r) stays put
    pair = BernsteinPair(v=2.0, b=1.0)
    for s in (0.5, 2.0, 7.0):
        scaled = BernsteinPair(v=s * s * pair.v, b=s * pair.b)
        for r in (0.1, 1.0, 3.0):
            assert psi_star(scaled, s * r) == pytest.approx(
                psi_star(pair, r), rel=1e-12
            )
