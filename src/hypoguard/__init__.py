"""hypoguard: simulation and certification toolkit for hypocoercive
non-reversible MCMC samplers.

The package simulates four samplers (underdamped Langevin, hybrid HMC,
bouncy particle, zig-zag), computes explicit non-asymptotic performance
guarantees for bounded observables of their ergodic averages (Bernstein
concentration bounds, confidence radii, uncertainty-quantification bias
bounds), and empirically validates every inequality at desk scale.

Each public name is imported from its module on first use, so that the
closed-form bound calculus does not pay for loading NumPy and the samplers.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports through the package
_EXPORTS = {
    "bernstein": ("BernsteinPair", "psi", "psi_star", "psi_star_inv"),
    "catalog": ("gaussian_chi_square_norm",),
    "guarantees": ("concentration_bound", "confidence_radius", "eta_T", "min_time_for_radius",
                   "transient_term", "uq_bias_bound"),
    "hypocoercivity": ("AdmissibilityError", "DerivedConstants", "HypoParams", "ObservableStats",
                       "bernstein_from_hypo", "derived_constants", "eps_max", "lambda_of_eps",
                       "lambda_q_from_target", "optimal_eps"),
    "samplers": ("ThinningBoundError", "Trajectory", "flip", "invert_affine_rate", "reflect",
                 "sample_by_thinning", "simulate_bps", "simulate_hhmc", "simulate_langevin",
                 "simulate_zigzag", "time_average"),
    "targets": ("MomentumModel", "Observable", "TargetModel", "builtin_observable",
                "builtin_target", "estimate_poincare_1d", "linear_tilt",
                "observable_stats_quadrature", "scale_potential", "stationary_expectation_1d"),
    "validation": ("ExperimentConfig", "ValidationReport", "coverage_experiment",
                   "girsanov_entropy_rate_langevin", "jump_entropy_rate_zigzag",
                   "mgf_experiment", "tail_experiment", "uq_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
