"""Input guards that no other test reaches: each call raises its own message.

A guard written ``not x >= 0`` (or ``not 0 < x <= 1``) also rejects NaN, so
each of those is called with NaN too.
"""

import math
import re

import numpy as np
import pytest

from hypoguard import (
    BernsteinPair,
    ExperimentConfig,
    HypoParams,
    MomentumModel,
    ObservableStats,
    bernstein_from_hypo,
    builtin_observable,
    builtin_target,
    concentration_bound,
    confidence_radius,
    derived_constants,
    estimate_poincare_1d,
    eta_T,
    girsanov_entropy_rate_langevin,
    lambda_q_from_target,
    min_time_for_radius,
    simulate_bps,
    simulate_zigzag,
    stationary_expectation_1d,
    transient_term,
    uq_bias_bound,
)
from hypoguard import samplers, validation
from hypoguard.samplers import flip, invert_affine_rate, reflect

PAIR = BernsteinPair(v=1.0, b=1.0)
HYPO = HypoParams(lambda_p=1.0, lambda_q=0.5, R0=1.0, eps=0.3)
STATS = ObservableStats(mean=0.0, variance=0.5, sup_norm=1.0)
GAUSS = builtin_target("gaussian_iso", dim=1)
PLANE = builtin_target("gaussian_iso", dim=2)
HOT = builtin_target("gaussian_iso", dim=1, beta=0.5)
WELL = builtin_target("double_well", beta=1.5, poincare_const=1.0)


def with_nan(name, call, message, bad):
    """The case ``call(bad)`` and its NaN twin, each expecting
    ``message.format(bad)`` in full."""
    return [pytest.param(lambda x=x: call(x), ValueError,
                         "^" + re.escape(message.format(x)) + "$", id=f"{name}={x}")
            for x in (bad, math.nan)]


CASES = [
    *with_nan("concentration_bound-c", lambda x: concentration_bound(PAIR, x, 1.0, 0.1, 10.0),
              "c must be in (0, 1], got {}", 0.0),
    *with_nan("concentration_bound-dmu_norm",
              lambda x: concentration_bound(PAIR, 0.9, x, 0.1, 10.0),
              "dmu_norm must be >= 1, got {}", 0.5),
    *with_nan("concentration_bound-T", lambda x: concentration_bound(PAIR, 0.9, 1.0, 0.1, x),
              "T must be > 0, got {}", 0.0),
    *with_nan("confidence_radius-N", lambda x: confidence_radius(PAIR, PAIR, x, 0.1, 10.0),
              "N must be >= 1, got {}", 0.5),
    *with_nan("confidence_radius-delta", lambda x: confidence_radius(PAIR, PAIR, 1.0, x, 10.0),
              "delta must be in (0, 1), got {}", 1.0),
    *with_nan("confidence_radius-T", lambda x: confidence_radius(PAIR, PAIR, 1.0, 0.1, x),
              "T must be > 0, got {}", 0.0),
    *with_nan("min_time_for_radius-r", lambda x: min_time_for_radius(PAIR, 1.0, 0.1, x),
              "no finite horizon reaches radius r = {}", 0.0),
    *with_nan("min_time_for_radius-N", lambda x: min_time_for_radius(PAIR, x, 0.1, 0.5),
              "N must be >= 1, got {}", 0.5),
    *with_nan("min_time_for_radius-delta", lambda x: min_time_for_radius(PAIR, 1.0, x, 0.5),
              "delta must be in (0, 1), got {}", 0.0),
    *with_nan("eta_T-T", lambda x: eta_T(0.9, 1.0, 0.1, x), "T must be > 0, got {}", -1.0),
    *with_nan("uq_bias_bound-transient", lambda x: uq_bias_bound(PAIR, PAIR, 0.1, x),
              "transient must be >= 0, got {}", -1.0),
    *with_nan("transient_term-dmu_norm",
              lambda x: transient_term(derived_constants(HYPO), x, 0.5, 10.0),
              "dmu_norm must be >= 1, got {}", 0.5),
    *with_nan("transient_term-variance",
              lambda x: transient_term(derived_constants(HYPO), 1.0, x, 10.0),
              "variance must be >= 0, got {}", -1.0),
    *with_nan("transient_term-T", lambda x: transient_term(derived_constants(HYPO), 1.0, 0.5, x),
              "T must be > 0, got {}", 0.0),
    *with_nan("lambda_q_from_target-C_nu", lambda x: lambda_q_from_target(C_nu=x, kappa_p=1.0),
              "C_nu must be > 0, got {}", 0.0),
    *with_nan("lambda_q_from_target-kappa_p",
              lambda x: lambda_q_from_target(C_nu=1.0, kappa_p=x),
              "kappa_p must be > 0, got {}", -1.0),
    *with_nan("bernstein_from_hypo-dmu_norm",
              lambda x: bernstein_from_hypo(HYPO, STATS, dmu_norm=x),
              "dmu_norm must be >= 1, got {}", 0.5),
    # NaN fails the finiteness check before this one
    pytest.param(lambda: ObservableStats(mean=0.0, variance=0.0, sup_norm=-1.0), ValueError,
                 r"^sup_norm must be >= 0, got -1\.0$", id="ObservableStats-sup_norm"),
    pytest.param(lambda: reflect(np.array([1.0]), np.zeros(1)), ValueError,
                 "^degenerate gradient: reflection undefined$", id="reflect-zero-gradient"),
    pytest.param(lambda: flip(np.array([1.0, -1.0]), 2), IndexError,
                 "^component 2 out of range for dimension 2$", id="flip-index"),
    pytest.param(lambda: invert_affine_rate(1.0, 1.0, -1.0), ValueError,
                 "^exponential draw must be >= 0$", id="invert_affine_rate-draw"),
    pytest.param(lambda: simulate_zigzag(GAUSS, 1.0, 0, v0=[0.5]), ValueError,
                 r"^zig-zag velocity components must be \+-1$", id="simulate_zigzag-v0"),
    pytest.param(lambda: WELL.hessian_modes, ValueError,
                 "^target 'double_well' has no constant Hessian$", id="hessian_modes"),
    pytest.param(lambda: builtin_target("gaussian_aniso", H=[[1.0, 0.5], [0.0, 1.0]]),
                 ValueError, "^H must be symmetric$", id="gaussian_aniso-symmetric"),
    pytest.param(lambda: builtin_target("gaussian_aniso", H=[[1.0, 0.0], [0.0, -1.0]]),
                 ValueError, "^H must be positive definite$", id="gaussian_aniso-definite"),
    pytest.param(lambda: stationary_expectation_1d(PLANE), ValueError,
                 "^quadrature expectations are 1-D only, not dim 2$", id="quadrature-dim"),
    pytest.param(lambda: estimate_poincare_1d(PLANE), ValueError,
                 "^estimator is 1-D only$", id="estimate_poincare_1d-dim"),
    pytest.param(lambda: builtin_observable("clipped_coord", GAUSS, L=0.0), ValueError,
                 "^clipped_coord requires L > 0$", id="clipped_coord-L"),
    pytest.param(lambda: girsanov_entropy_rate_langevin(GAUSS, HOT, 1.0), ValueError,
                 "^baseline and alternative must share beta$", id="entropy-rate-beta"),
    pytest.param(lambda: validation.run_replicas(ExperimentConfig(
        sampler="gibbs", target=GAUSS, observable=builtin_observable("cos", GAUSS), hypo=HYPO,
        T=1.0, delta=0.1, replicas=2, seed=0)), ValueError, "^unknown sampler 'gibbs'$",
        id="run_replicas-sampler"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_float_bounce_at_a_critical_point_and_at_an_underflowing_gradient(monkeypatch):
    # the 1-D BPS bounce on floats: none at g = 0, where the reflection is
    # undefined, and a raise where g is not 0 but g * g underflows to 0
    jumps = []
    monkeypatch.setattr(samplers, "_simulate_pdmp", lambda *args: jumps.append(args[3]))
    simulate_bps(GAUSS, MomentumModel(kind="gaussian"), 1.0, 1.0, 0)
    bounce_float = jumps[0][1]
    assert bounce_float(1.0, 0.0, 0) is None
    assert bounce_float(1.0, -2.0, 0) == -1.0
    with pytest.raises(ValueError, match="^degenerate gradient: reflection undefined$"):
        bounce_float(1.0, 1e-200, 0)
