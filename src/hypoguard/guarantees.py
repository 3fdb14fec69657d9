"""Top-level guarantee calculus.

Concentration tail bounds, two-sided confidence radii and their time
inversion, and uncertainty-quantification (UQ) bias bounds expressed in
terms of a path-space relative entropy rate.  Everything here is a pure
closed-form composition of the Bernstein algebra; nothing is estimated.
"""

from __future__ import annotations

import math

from .bernstein import BernsteinPair, psi_star, psi_star_inv
from .hypocoercivity import DerivedConstants

__all__ = [
    "concentration_bound",
    "confidence_radius",
    "min_time_for_radius",
    "eta_T",
    "uq_bias_bound",
    "transient_term",
]


def concentration_bound(
    pair: BernsteinPair, c: float, dmu_norm: float, r: float, T: float
) -> float:
    """One-sided tail bound c^{-1} ||dmu/dmu*|| exp(-T psi*(r)).

    Values above 1 are returned verbatim (vacuous bound); the caller decides
    how to flag them.
    """
    if not (0.0 < c <= 1.0):
        raise ValueError(f"c must be in (0, 1], got {c}")
    if not dmu_norm >= 1.0:
        raise ValueError(f"dmu_norm must be >= 1, got {dmu_norm}")
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    return dmu_norm / c * math.exp(-T * psi_star(pair, r))


def confidence_radius(
    pair_plus: BernsteinPair,
    pair_minus: BernsteinPair,
    N: float,
    delta: float,
    T: float,
) -> tuple[float, float]:
    """Radii (r_minus, r_plus) with r_pm = (psi*)^{-1}((1/T) log(2N/delta)).

    The event {F_T - mu*[f] in (-r_minus, r_plus)} then has probability at
    least 1 - delta.
    """
    if not N >= 1.0:
        raise ValueError(f"N must be >= 1, got {N}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    eta = math.log(2.0 * N / delta) / T
    return psi_star_inv(pair_minus, eta), psi_star_inv(pair_plus, eta)


def min_time_for_radius(
    pair: BernsteinPair, N: float, delta: float, r: float
) -> float:
    """Smallest T at which the one-sided confidence radius drops to ``r``:
    T = log(2N/delta) / psi*(r).  Exact inverse of :func:`confidence_radius`.
    ``inf`` where psi*(r) underflows to 0: the horizon is beyond the float range.
    """
    if not r > 0.0:
        raise ValueError(f"no finite horizon reaches radius r = {r}")
    if not N >= 1.0:
        raise ValueError(f"N must be >= 1, got {N}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    rate = psi_star(pair, r)
    return math.log(2.0 * N / delta) / rate if rate > 0.0 else math.inf


def eta_T(c: float, dmu_norm: float, rel_entropy: float, T: float) -> float:
    """Finite-horizon rate eta_T = (1/T)(log(1/c) + log||dmu/dmu*|| + R)."""
    if not (0.0 < c <= 1.0):
        raise ValueError(f"c must be in (0, 1], got {c}")
    if not dmu_norm >= 1.0:
        raise ValueError(f"dmu_norm must be >= 1, got {dmu_norm}")
    if not rel_entropy >= 0.0:
        raise ValueError(f"relative entropy must be >= 0, got {rel_entropy}")
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    return (math.log(1.0 / c) + math.log(dmu_norm) + rel_entropy) / T


def uq_bias_bound(
    pair_plus: BernsteinPair,
    pair_minus: BernsteinPair,
    eta: float,
    transient: float = 0.0,
) -> tuple[float, float]:
    """One-sided bias bounds (bound_minus, bound_plus):

        bound_pm = sqrt(2 v_pm eta) + b_pm eta + transient.

    The steady-state variant uses transient = 0 and eta = eta_infinity.
    """
    if not transient >= 0.0:
        raise ValueError(f"transient must be >= 0, got {transient}")
    if math.isinf(eta):
        return math.inf, math.inf
    return (
        psi_star_inv(pair_minus, eta) + transient,
        psi_star_inv(pair_plus, eta) + transient,
    )


def transient_term(
    derived: DerivedConstants, dmu_norm: float, variance: float, T: float
) -> float:
    """Transient bias of the baseline started at mu:

        (C/c) * (1 - exp(-T/alpha)) / (T/alpha) * ||dmu/dmu*|| * sqrt(Var),

    i.e. the integrated exponential decay e^{-t/alpha} of the semigroup
    applied to the centered observable.
    """
    if not dmu_norm >= 1.0:
        raise ValueError(f"dmu_norm must be >= 1, got {dmu_norm}")
    if not variance >= 0.0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    x = T / derived.alpha
    # (1 - e^{-x})/x, stable at small x
    factor = -math.expm1(-x) / x
    return derived.C / derived.c * factor * dmu_norm * math.sqrt(variance)
