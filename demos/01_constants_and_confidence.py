"""From hypocoercivity constants to a confidence interval, step by step.

A 1-D standard Gaussian target, the bounded observable cos(q), and the
zig-zag sampler.  The script derives every constant in the chain

    (lambda_p, lambda_q, R0, eps)  ->  Lambda, c, C, alpha
                                   ->  Bernstein pair (v, b), prefactor N
                                   ->  confidence radii r_-, r_+

and prints the horizon needed to certify a given accuracy.
"""

import numpy as np

from hypoguard import (
    HypoParams,
    builtin_observable,
    builtin_target,
    bernstein_from_hypo,
    confidence_radius,
    eps_max,
    lambda_q_from_target,
    min_time_for_radius,
    optimal_eps,
)

target = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
observable = builtin_observable("cos", target, omega=1.0)

# lambda_q from the Poincare constant of the target and the momentum
# marginal; lambda_p and R0 are model inputs (R0 = 1 is illustrative).
lambda_q = lambda_q_from_target(C_nu=target.poincare_const, kappa_p=1.0)
lambda_p, R0 = 1.0, 1.0

print(f"lambda_q = {lambda_q:.4f}   (from Poincare constant {target.poincare_const})")
print(f"admissible eps < {eps_max(lambda_q, lambda_p, R0):.4f}")

eps = optimal_eps(lambda_q, lambda_p, R0)
params = HypoParams(lambda_p=lambda_p, lambda_q=lambda_q, R0=R0, eps=eps)
pair, N, derived = bernstein_from_hypo(params, observable.stats)

print(f"optimal eps = {eps:.4f} -> Lambda = {derived.Lambda:.4f}, "
      f"c = {derived.c:.4f}, C = {derived.C:.4f}, alpha = {derived.alpha:.2f}")
print(f"Bernstein pair: v = {pair.v:.3f}, b = {pair.b:.3f}, prefactor N = {N:.4f}")
print()

delta = 0.1
print(f"confidence radii at delta = {delta}:")
for T in (50.0, 150.0, 500.0, 2000.0):
    r_minus, r_plus = confidence_radius(pair, pair, N, delta, T)
    note = " (vacuous)" if observable.stats.vacuous(r_minus, r_plus) else ""
    print(f"  T = {T:7.0f}:  r = {r_plus:.4f}{note}")

r_target = 0.25
T_needed = min_time_for_radius(pair, N, delta, r_target)
print(f"\nhorizon for radius {r_target} at delta = {delta}: T = {T_needed:.0f}")
