"""hypoguard: simulation and certification toolkit for hypocoercive
non-reversible MCMC samplers.

The package simulates four samplers (underdamped Langevin, hybrid HMC,
bouncy particle, zig-zag), computes explicit non-asymptotic performance
guarantees for bounded observables of their ergodic averages (Bernstein
concentration bounds, confidence radii, uncertainty-quantification bias
bounds), and empirically validates every inequality at desk scale.
"""

__version__ = "0.1.0"

from .bernstein import BernsteinPair, psi, psi_star, psi_star_inv
from .guarantees import (
    concentration_bound,
    confidence_radius,
    eta_T,
    min_time_for_radius,
    transient_term,
    uq_bias_bound,
)
from .hypocoercivity import (
    AdmissibilityError,
    DerivedConstants,
    HypoParams,
    ObservableStats,
    bernstein_from_hypo,
    derived_constants,
    eps_max,
    lambda_of_eps,
    lambda_q_from_target,
    optimal_eps,
)
from .samplers import (
    ThinningBoundError,
    Trajectory,
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
from .targets import (
    MomentumModel,
    Observable,
    TargetModel,
    builtin_observable,
    builtin_target,
    estimate_poincare_1d,
    gaussian_chi_square_norm,
    linear_tilt,
    observable_stats_quadrature,
    scale_potential,
    stationary_expectation_1d,
)
from .validation import (
    ExperimentConfig,
    ValidationReport,
    coverage_experiment,
    girsanov_entropy_rate_langevin,
    jump_entropy_rate_zigzag,
    mgf_experiment,
    tail_experiment,
    uq_experiment,
)
