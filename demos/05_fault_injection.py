"""The validation suite catches real dynamics bugs.

The bouncy particle sampler must reflect momentum elastically:
p -> p - 2 (p . n) n with n the unit gradient direction.  Dropping the
factor 2 (projecting out the normal component instead of flipping it)
produces a dynamics that still runs happily but no longer preserves the
target.  The stationarity gate inside every validation experiment checks
the Stein identity E[q V'(q)] = 1/beta, which needs only the gradient, so it
fails the run on a Gaussian and on the double well alike.  On the well the
radius at T = 150 is vacuous and both runs cover, so only the gate tells them
apart.
"""

import dataclasses

import numpy as np

from hypoguard import (
    ExperimentConfig,
    HypoParams,
    Observable,
    builtin_observable,
    builtin_target,
    coverage_experiment,
    estimate_poincare_1d,
    lambda_q_from_target,
    observable_stats_quadrature,
    optimal_eps,
)


def bps_config(target, observable, replicas, seed):
    """A BPS coverage config with lambda_q from the target's Poincare constant."""
    lambda_q = lambda_q_from_target(C_nu=target.poincare_const, kappa_p=1.0 / target.beta)
    hypo = HypoParams(lambda_p=1.0, lambda_q=lambda_q, R0=1.0,
                      eps=optimal_eps(lambda_q, 1.0, 1.0))
    return ExperimentConfig(sampler="bps", target=target, observable=observable, hypo=hypo,
                            T=150.0, delta=0.1, replicas=replicas, seed=seed)


gaussian = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
well = builtin_target("double_well", beta=1.5, poincare_const=1.0)
well = dataclasses.replace(well, poincare_const=estimate_poincare_1d(well))
cos = lambda q: np.cos(np.asarray(q)[..., 0])

settings = (bps_config(gaussian, builtin_observable("cos", gaussian, omega=1.0), 60, 42),
            bps_config(well, Observable("cos(q0)", cos, observable_stats_quadrature(cos, well)),
                       450, 7))
for good in settings:
    bad = dataclasses.replace(good, reflection_factor=1.0)
    print(f"== {good.target.name}, beta {good.target.beta}, {good.replicas} replicas ==")
    for label, cfg in (("factor 2 (correct)", good), ("factor 1 (buggy)", bad)):
        rep = coverage_experiment(cfg)
        gate = rep.details["stationarity"]["checks"]["mean_q_dV"]
        print(f"{label}:")
        print(f"  E[q V'] observed {gate['observed']:.3f}, expected {gate['expected']:.3f} "
              f"(+-{3 * gate['std_error']:.3f})")
        print(f"  coverage {rep.details['coverage']:.3f} (required "
              f"{rep.details['required']:.3f}{', bound vacuous' if rep.vacuous else ''}), "
              f"stationarity gate: {'PASS' if gate['passed'] else 'FAIL'}, "
              f"experiment: {'PASS' if rep.passed else 'FAIL'}\n")
