"""Contraction-rate algebra: eigenvalue identity, admissibility, derived constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoguard import (
    AdmissibilityError,
    HypoParams,
    ObservableStats,
    bernstein_from_hypo,
    derived_constants,
    eps_max,
    lambda_of_eps,
    lambda_q_from_target,
    optimal_eps,
)
from hypoguard.hypocoercivity import EPS_CAP


def eig_oracle(eps, lambda_q, lambda_p, R0):
    """Smallest eigenvalue of [[eps*lq, -eps*R0/2], [-eps*R0/2, lp - eps]]."""
    m = np.array([
        [eps * lambda_q, -eps * R0 / 2.0],
        [-eps * R0 / 2.0, lambda_p - eps],
    ])
    return float(np.linalg.eigvalsh(m)[0])


def eps_max_closed_form(lambda_q, lambda_p, R0):
    return min(1.0, 4.0 * lambda_q * lambda_p / (4.0 * lambda_q + R0 * R0))


def test_lambda_known_value():
    p = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=0.0, eps=0.5)
    assert lambda_of_eps(p) == pytest.approx(0.25, abs=1e-15)


def test_lambda_matches_eigensolver():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        lq = rng.uniform(0.05, 1.0)
        lp = rng.uniform(0.05, 5.0)
        R0 = rng.uniform(0.0, 4.0)
        cap = eps_max(lq, lp, R0)
        eps = rng.uniform(1e-6, cap * (1.0 - 1e-9))
        p = HypoParams(lambda_p=lp, lambda_q=lq, R0=R0, eps=eps)
        assert abs(lambda_of_eps(p) - eig_oracle(eps, lq, lp, R0)) < 1e-12


def test_eps_max_known_values():
    assert eps_max(1.0, 0.5, 0.0) == pytest.approx(0.5, abs=1e-9)
    assert eps_max(1.0, 1.0, 2.0) == pytest.approx(0.5, abs=1e-9)
    assert eps_max(1.0, 10.0, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_eps_max_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(300):
        lq = rng.uniform(0.05, 1.0)
        lp = rng.uniform(0.05, 5.0)
        R0 = rng.uniform(0.0, 4.0)
        assert eps_max(lq, lp, R0) == pytest.approx(
            eps_max_closed_form(lq, lp, R0), abs=1e-9
        )


def test_lambda_positive_iff_admissible():
    rng = np.random.default_rng(5)
    for _ in range(300):
        lq = rng.uniform(0.05, 1.0)
        lp = rng.uniform(0.05, 5.0)
        R0 = rng.uniform(0.0, 4.0)
        cap = eps_max_closed_form(lq, lp, R0)
        below = cap * (1.0 - 1e-6)
        assert eig_oracle(below, lq, lp, R0) > 0.0
        if cap < 1.0:
            above = min(cap * (1.0 + 1e-4), 0.999999)
            if above > cap:
                assert eig_oracle(above, lq, lp, R0) <= 0.0


def test_optimal_eps_known_value():
    assert optimal_eps(0.5, 1.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_optimal_eps_is_argmax():
    rng = np.random.default_rng(17)
    for _ in range(50):
        lq = rng.uniform(0.05, 1.0)
        lp = rng.uniform(0.05, 5.0)
        R0 = rng.uniform(0.0, 4.0)
        best = optimal_eps(lq, lp, R0)
        # the implementation restricts eps to (0, 0.999]; compare on that range
        cap = min(eps_max(lq, lp, R0), 0.999)
        lam_best = eig_oracle(best, lq, lp, R0)
        for eps in np.linspace(1e-6, cap * (1.0 - 1e-9), 200):
            assert eig_oracle(eps, lq, lp, R0) <= lam_best + 1e-9


def test_optimal_eps_exact_values():
    # lambda_q = 1 makes the stationary point lambda_p * 2 / (4 + R0^2)
    assert optimal_eps(1.0, 1.0, 2.0) == pytest.approx(0.25, abs=1e-15)
    # R0 = 0 puts it at lambda_p / (1 + lambda_q) = 5, beyond the cap
    assert optimal_eps(1.0, 10.0, 0.0) == EPS_CAP
    assert eps_max(1.0, 1.0, 2.0) == 0.5


def test_optimal_eps_maximizes_lambda_in_both_regimes():
    rng = np.random.default_rng(29)
    regimes = set()
    for _ in range(400):
        lq = rng.uniform(0.01, 1.0)
        lp = rng.uniform(0.05, 20.0)
        R0 = rng.uniform(0.0, 5.0)
        best = optimal_eps(lq, lp, R0)
        cap = min(eps_max(lq, lp, R0), EPS_CAP)
        regimes.add(best == cap)

        def lam(eps):
            return lambda_of_eps(HypoParams(lambda_p=lp, lambda_q=lq, R0=R0, eps=eps))

        lam_best = lam(best)
        for eps in np.linspace(cap * 1e-6, cap, 400):
            assert lam_best >= lam(eps) - 1e-14
    assert regimes == {True, False}


@pytest.mark.parametrize("lq,lp", [(0.5, 0.0), (0.5, -1.0), (0.0, 1.0), (-0.5, 1.0)])
def test_optimal_eps_rejects_nonpositive_constants(lq, lp):
    assert eps_max(lq, lp, 1.0) == 0.0
    with pytest.raises(AdmissibilityError):
        optimal_eps(lq, lp, 1.0)


@pytest.mark.parametrize("lq,lp,R0", [(0.5, 1.0, math.nan), (0.5, math.inf, 1.0),
                                      (0.5, 1.0, math.inf), (math.nan, 1.0, 1.0)])
def test_optimal_eps_rejects_nonfinite_constants(lq, lp, R0):
    assert eps_max(lq, lp, R0) == 0.0
    with pytest.raises(AdmissibilityError):
        optimal_eps(lq, lp, R0)


def test_param_validation():
    with pytest.raises(ValueError):
        HypoParams(lambda_p=0.0, lambda_q=0.5, R0=0.0, eps=0.1)
    with pytest.raises(ValueError):
        HypoParams(lambda_p=1.0, lambda_q=1.5, R0=0.0, eps=0.1)
    with pytest.raises(ValueError):
        HypoParams(lambda_p=1.0, lambda_q=0.5, R0=-1.0, eps=0.1)
    with pytest.raises(ValueError):
        HypoParams(lambda_p=1.0, lambda_q=0.5, R0=0.0, eps=1.0)
    with pytest.raises(ValueError, match="^lambda_p must be finite"):
        HypoParams(lambda_p=math.inf, lambda_q=0.5, R0=0.0, eps=0.1)
    with pytest.raises(ValueError, match="^R0 must be finite"):
        HypoParams(lambda_p=1.0, lambda_q=0.5, R0=math.inf, eps=0.1)
    # eps above the positivity threshold is flagged when constants are derived
    with pytest.raises(AdmissibilityError):
        derived_constants(HypoParams(lambda_p=0.5, lambda_q=1.0, R0=0.0, eps=0.6))


def test_lambda_q_from_target():
    assert lambda_q_from_target(C_nu=1.0, kappa_p=1.0) == pytest.approx(0.5)
    val = lambda_q_from_target(C_nu=3.7, kappa_p=0.2)
    assert 0.0 < val < 1.0


@given(C_nu=st.floats(1e-3, 1e3), kappa_p=st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_lambda_q_strictly_inside_unit_interval(C_nu, kappa_p):
    val = lambda_q_from_target(C_nu, kappa_p)
    assert 0.0 < val < 1.0


def test_derived_constants():
    p = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=0.0, eps=0.5)
    d = derived_constants(p)
    assert d.Lambda == pytest.approx(0.25)
    assert d.c == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert d.C == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert d.alpha == pytest.approx(1.5 / 0.25, rel=1e-15)


def test_bernstein_from_hypo_known_values():
    p = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=0.0, eps=0.5)
    stats = ObservableStats(mean=0.0, variance=1.0, sup_norm=1.0)
    pair, N, derived = bernstein_from_hypo(p, stats, dmu_norm=1.0)
    assert pair.v == pytest.approx(22.5, rel=1e-12)
    assert pair.b == pytest.approx(18.0, rel=1e-12)
    assert N == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_bernstein_from_hypo_zero_variance():
    p = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=0.0, eps=0.5)
    stats = ObservableStats(mean=1.0, variance=0.0, sup_norm=1.0)
    pair, _, _ = bernstein_from_hypo(p, stats)
    assert pair.v == 0.0


@pytest.mark.parametrize("field, fields", [
    ("mean", {"mean": math.nan}),
    ("mean", {"mean": -math.inf}),
    ("variance", {"variance": math.inf, "sup_norm": math.inf}),
    ("sup_norm", {"sup_norm": math.inf}),
])
def test_observable_stats_reject_non_finite_fields(field, fields):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ObservableStats(**{"mean": 0.0, "variance": 1.0, "sup_norm": 1.0, **fields})


def test_bernstein_variance_identity_and_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        lq = rng.uniform(0.05, 1.0)
        lp = rng.uniform(0.05, 5.0)
        R0 = rng.uniform(0.0, 3.0)
        eps = rng.uniform(1e-4, eps_max(lq, lp, R0) * (1.0 - 1e-9))
        p = HypoParams(lambda_p=lp, lambda_q=lq, R0=R0, eps=eps)
        var = rng.uniform(0.1, 4.0)
        sup = math.sqrt(var) + rng.uniform(0.0, 3.0)
        stats = ObservableStats(mean=0.0, variance=var, sup_norm=sup)
        dmu = rng.uniform(1.0, 5.0)
        pair, N, d = bernstein_from_hypo(p, stats, dmu_norm=dmu)
        # exact identity for v, and N >= 1
        expected_v = (
            (1.0 + eps) * (1.0 - eps * eps / 4.0) / (1.0 - eps)
            * 2.0 * var / d.Lambda
        )
        assert pair.v == pytest.approx(expected_v, rel=1e-12)
        assert pair.b == pytest.approx(
            (1.0 + eps) ** 2 / (1.0 - eps) * sup / d.Lambda, rel=1e-12
        )
        assert N >= 1.0
        # v, b nonincreasing in Lambda for fixed eps and stats: scale lambda_p
        p2 = HypoParams(lambda_p=lp * 1.5, lambda_q=lq, R0=R0, eps=eps)
        if lambda_of_eps(p2) > d.Lambda:
            pair2, _, _ = bernstein_from_hypo(p2, stats, dmu_norm=dmu)
            assert pair2.v <= pair.v + 1e-12
            assert pair2.b <= pair.b + 1e-12
