"""Target models, observables, and closed-form statistics vs quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from hypoguard import (
    MomentumModel,
    builtin_observable,
    builtin_target,
    estimate_poincare_1d,
    gaussian_chi_square_norm,
    linear_tilt,
    observable_stats_quadrature,
    scale_potential,
    simulate_zigzag,
)
from hypoguard.catalog import builtin_stats, gaussian_iso
from hypoguard.samplers import stream_rng


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
