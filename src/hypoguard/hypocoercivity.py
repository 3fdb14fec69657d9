"""Hypocoercive spectral constants and explicit Bernstein parameters.

Given the three model-level constants lambda_p (momentum-direction Poincare
constant), lambda_q (position-direction constant) and R0 (off-diagonal
coupling bound), the modified inner product with parameter eps in (0,1)
yields a coercivity constant Lambda(eps), the smallest eigenvalue of

    [[ eps*lambda_q,  -eps*R0/2    ],
     [ -eps*R0/2,     lambda_p-eps ]].

This module computes, in closed form, Lambda(eps), the admissible eps range,
the eps maximizing Lambda, and the explicit (v, b, N, alpha) constants used
by the confidence interval and UQ bounds for a bounded observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bernstein import BernsteinPair

__all__ = [
    "HypoParams",
    "DerivedConstants",
    "ObservableStats",
    "AdmissibilityError",
    "EPS_CAP",
    "lambda_of_eps",
    "eps_max",
    "optimal_eps",
    "lambda_q_from_target",
    "derived_constants",
    "bernstein_from_hypo",
]

# eps = 1 degenerates the norm equivalence (c = sqrt(1-eps) -> 0), so the
# admissible range is capped strictly below 1.
EPS_CAP = 0.999


class AdmissibilityError(ValueError):
    """Raised when Lambda(eps) <= 0, i.e. the parameter set is inadmissible."""


@dataclass(frozen=True)
class HypoParams:
    """Hypocoercivity constants (lambda_p, lambda_q, R0) and the inner-product
    parameter eps."""

    lambda_p: float
    lambda_q: float
    R0: float
    eps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_p < math.inf:
            raise ValueError(f"lambda_p must be finite and > 0, got {self.lambda_p}")
        if not (0.0 < self.lambda_q <= 1.0):
            raise ValueError(f"lambda_q must be in (0, 1], got {self.lambda_q}")
        if not 0.0 <= self.R0 < math.inf:
            raise ValueError(f"R0 must be finite and >= 0, got {self.R0}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants of the modified inner product: Lambda(eps), the norm
    equivalence factors c = sqrt(1-eps) <= 1 <= C = sqrt(1+eps), and the
    Poincare constant alpha = (1+eps)/Lambda(eps)."""

    Lambda: float
    c: float
    C: float
    alpha: float


@dataclass(frozen=True)
class ObservableStats:
    """Mean, variance and sup norm of the centered observable f - mean."""

    mean: float
    variance: float
    sup_norm: float

    def __post_init__(self) -> None:
        # plain floats keep every bound derived from the stats, and so every
        # report, JSON-serialisable when a caller passes NumPy scalars
        for name in ("mean", "variance", "sup_norm"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.variance >= 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if not self.sup_norm >= 0.0:
            raise ValueError(f"sup_norm must be >= 0, got {self.sup_norm}")
        # bounded centered observable: Var <= ||f - mean||_inf^2
        if self.variance > self.sup_norm**2 * (1.0 + 1e-12) + 1e-300:
            raise ValueError(
                f"variance {self.variance} exceeds sup_norm^2 = {self.sup_norm**2}"
            )

    def vacuous(self, *radii: float) -> bool:
        """Whether every radius is at or above ||f - mean||_inf, a bound on |F_T - mean|."""
        return all(r >= self.sup_norm for r in radii)


def lambda_of_eps(params: HypoParams) -> float:
    """Lambda(eps), the smallest eigenvalue of the 2x2 coercivity matrix.

    May be <= 0; callers decide admissibility.  A discriminant beyond the
    float range raises ``OverflowError`` naming Lambda(eps) and its inputs.
    """
    eps, lambda_q, lambda_p, R0 = params.eps, params.lambda_q, params.lambda_p, params.R0
    try:
        disc = ((lambda_q + 1.0) * eps - lambda_p) ** 2 + (eps * R0) ** 2
    except OverflowError as exc:
        raise OverflowError(f"Lambda(eps) overflows for eps = {eps}, lambda_q = {lambda_q}, "
                            f"lambda_p = {lambda_p} and R0 = {R0}") from exc
    return 0.5 * ((lambda_q - 1.0) * eps + lambda_p - math.sqrt(disc))


def eps_max(lambda_q: float, lambda_p: float, R0: float) -> float:
    """Supremum of the eps in (0, 1) with Lambda(eps) > 0, capped at 1; 0 if
    none or if a constant is not finite.  The matrix is positive definite iff
    det = eps*(lambda_q*lambda_p - eps*(lambda_q + R0^2/4)) > 0, which also
    forces trace > 0."""
    if not (0.0 < lambda_q < math.inf and 0.0 < lambda_p < math.inf and math.isfinite(R0)):
        return 0.0
    return min(1.0, 4.0 * lambda_q * lambda_p / (4.0 * lambda_q + R0 * R0))


def optimal_eps(lambda_q: float, lambda_p: float, R0: float) -> float:
    """The eps in (0, min(eps_max, EPS_CAP)] maximizing Lambda(eps), exactly.

    Lambda is linear minus the norm of an affine map of eps, hence concave,
    so the maximizer is the stationary point eps* capped at the range end:
    eps* = lambda_p (1 + lambda_q + |R0| (lambda_q - 1) / sqrt(4 lambda_q
    + R0^2)) / ((1 + lambda_q)^2 + R0^2).
    """
    cap = min(eps_max(lambda_q, lambda_p, R0), EPS_CAP)
    if cap <= 0.0:
        raise AdmissibilityError(
            f"no admissible eps for lambda_q={lambda_q}, lambda_p={lambda_p}, R0={R0}"
        )
    root = abs(R0) * (lambda_q - 1.0) / math.sqrt(4.0 * lambda_q + R0 * R0)
    return min(lambda_p * (1.0 + lambda_q + root) / ((1.0 + lambda_q) ** 2 + R0 * R0), cap)


def lambda_q_from_target(C_nu: float, kappa_p: float) -> float:
    """Position-direction constant lambda_q = 1 - (1 + kappa_p * C_nu)^(-1).

    ``C_nu`` is the gap lambda of lambda Var f <= int |grad f|^2 dnu* on the
    position marginal nu*, and ``kappa_p`` the second moment E[p_1^2]/m^2 of
    a velocity component (1 for zig-zag, 1/(m*beta) for Gaussian momentum).
    """
    if not C_nu > 0.0:
        raise ValueError(f"C_nu must be > 0, got {C_nu}")
    if not kappa_p > 0.0:
        raise ValueError(f"kappa_p must be > 0, got {kappa_p}")
    return 1.0 - 1.0 / (1.0 + kappa_p * C_nu)


def derived_constants(params: HypoParams) -> DerivedConstants:
    """Lambda, c, C, alpha for an admissible parameter set."""
    lam = lambda_of_eps(params)
    if not lam > 0.0:
        raise AdmissibilityError(
            f"Lambda(eps) = {lam} <= 0 for eps = {params.eps}; "
            f"admissible range is (0, {eps_max(params.lambda_q, params.lambda_p, params.R0)})"
        )
    return DerivedConstants(
        Lambda=lam,
        c=math.sqrt(1.0 - params.eps),
        C=math.sqrt(1.0 + params.eps),
        alpha=(1.0 + params.eps) / lam,
    )


def bernstein_from_hypo(
    params: HypoParams,
    stats: ObservableStats,
    dmu_norm: float = 1.0,
) -> tuple[BernsteinPair, float, DerivedConstants]:
    """Explicit Bernstein constants for a bounded observable:

        v = (1+eps)(1-eps^2/4)/(1-eps) * 2*Var / Lambda(eps)
        b = (1+eps)^2/(1-eps) * sup_norm / Lambda(eps)
        N = dmu_norm / sqrt(1-eps)

    ``dmu_norm`` is the chi-square prefactor ||dmu/dmu*|| of the initial
    distribution (1 for a stationary start).
    """
    if not dmu_norm >= 1.0:
        raise ValueError(f"dmu_norm must be >= 1, got {dmu_norm}")
    der = derived_constants(params)
    eps = params.eps
    v = (1.0 + eps) * (1.0 - eps * eps / 4.0) / (1.0 - eps) * 2.0 * stats.variance / der.Lambda
    b = (1.0 + eps) ** 2 / (1.0 - eps) * stats.sup_norm / der.Lambda
    N = dmu_norm / math.sqrt(1.0 - eps)
    return BernsteinPair(v=v, b=b), N, der
