"""The built-in targets and observables by name, on plain floats.

This module holds the parameters each built-in takes, their checks, the
law of ``gaussian_iso``, the exact statistics of every built-in observable
under a Gaussian coordinate marginal and the rules of a Gaussian start.
It imports no NumPy, so the closed-form commands (``hypoguard ci`` and
``constants``) on a ``gaussian_iso`` target run without it, from either
start.  :mod:`hypoguard.targets` builds its models on the same checks and
takes each observable's statistics from
:func:`builtin_stats`; :mod:`hypoguard.validation` draws its starts with
:func:`gaussian_start` and certifies them with :func:`start_norm`.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .hypocoercivity import ObservableStats

# the parameter names each built-in target and observable takes
_TARGET_PARAMS = {"gaussian_iso": {"dim", "h", "beta"}, "gaussian_aniso": {"H", "beta"},
                  "double_well": {"beta", "poincare_const"}}
_OBSERVABLE_PARAMS = {"sin": {"omega"}, "cos": {"omega"}, "indicator": {"a", "b"},
                      "clipped_coord": {"L"}}


def _finite(value) -> bool:
    """Whether ``value`` is a finite number other than a bool or a string, or
    an array or a (nested) list of them."""
    if hasattr(value, "tolist"):  # a NumPy array or scalar
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, (bool, str)):
        return False
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _check_params(kind: str, name: str, params: dict, takes: dict) -> None:
    """Reject an unknown built-in ``name``, parameters it does not take
    (which would otherwise be ignored in favour of their defaults) and
    parameter values that are not finite numbers or arrays of them."""
    if name not in takes:
        raise ValueError(f"unknown {kind} '{name}'")
    unknown = sorted(set(params) - takes[name])
    if unknown:
        raise ValueError(f"{kind} '{name}' takes no parameter {', '.join(unknown)} "
                         f"(it takes {', '.join(sorted(takes[name]))})")
    for key, value in params.items():
        if not _finite(value):
            raise ValueError(f"{kind} parameter {key} must be a finite number, "
                             f"or a list of them, got {value!r}")


class GaussianIso(namedtuple("GaussianIso", "dim h beta")):
    """The law of ``gaussian_iso``, N(0, I / (beta h)) on R^dim, an immutable
    named tuple; :func:`gaussian_iso` checks its parameters."""

    __slots__ = ()
    is_quadratic = True

    def marginal_var(self, coord: int = 0) -> float:
        """1 / (beta h), bit for bit the diagonal of inv(h I) / beta."""
        return (1.0 / self.h) / self.beta


def gaussian_iso(**params) -> GaussianIso:
    """The law of ``gaussian_iso(dim, h, beta)``, its parameters checked."""
    _check_params("target", "gaussian_iso", params, _TARGET_PARAMS)
    dim = float(params.get("dim", 1))
    h = float(params.get("h", 1.0))
    beta = float(params.get("beta", 1.0))
    if h <= 0 or beta <= 0 or dim < 1 or dim != int(dim):
        raise ValueError("gaussian_iso requires h > 0, beta > 0 and an integer dim >= 1")
    if (1.0 / h) / beta == math.inf:
        raise ValueError(f"the variance 1 / (beta h) overflows for beta = {beta}, h = {h}")
    return GaussianIso(dim=int(dim), h=h, beta=beta)


def _normal_cdf(x: float) -> float:
    """Phi(x), the standard normal CDF, through the platform's ``erfc``; the
    upper tail 1 - Phi(x) is ``_normal_cdf(-x)``, with no cancellation."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


def _gaussian_coord_var(target, coord: int) -> float:
    if not target.is_quadratic:
        raise ValueError("closed-form stats require a Gaussian target")
    return target.marginal_var(coord)


def builtin_stats(name: str, target, coord: int = 0, **params) -> tuple[dict, ObservableStats]:
    """The parameters of built-in observable ``name`` of position coordinate
    ``coord``, as floats with their defaults, and its exact statistics on
    ``target`` (a :class:`GaussianIso` or a ``targets.TargetModel``).

    sin(omega), cos(omega): characteristic-function statistics.
    indicator(a, b): 1_{[a,b]}; clipped_coord(L): clip(q, -L, L).

    Raw (unclipped) coordinates are rejected; the guarantees require bounded
    observables.  Unknown names and parameters, parameter values that are not
    finite, a ``coord`` that is not an index of the target's coordinates and a
    target that is not Gaussian raise ``ValueError``.
    """
    if name in ("coord", "raw_coord", "identity"):
        raise ValueError(
            "unbounded observables are not admitted; use clipped_coord(L)"
        )
    _check_params("observable", name, params, _OBSERVABLE_PARAMS)
    if not (isinstance(coord, numbers.Integral) and not isinstance(coord, bool)
            and 0 <= coord < target.dim):
        raise ValueError(f"coord must be an integer in [0, {target.dim}), got {coord!r}")

    if name in ("sin", "cos"):
        omega = float(params.get("omega", 1.0))
        s2 = _gaussian_coord_var(target, coord)
        if name == "sin":
            var = 0.5 * (1.0 - math.exp(-2.0 * omega * omega * s2))
            return {"omega": omega}, ObservableStats(mean=0.0, variance=var, sup_norm=1.0)
        mean = math.exp(-omega * omega * s2 / 2.0)
        var = 0.5 * (1.0 + math.exp(-2.0 * omega * omega * s2)) - mean * mean
        return {"omega": omega}, ObservableStats(mean=mean, variance=var,
                                                 sup_norm=1.0 + abs(mean))

    if name == "indicator":
        a, b = float(params["a"]), float(params["b"])
        if not a < b:
            raise ValueError("indicator requires a < b")
        s = math.sqrt(_gaussian_coord_var(target, coord))
        if a >= 0:  # two upper tails, so that far out the mean keeps its digits
            mean = _normal_cdf(-a / s) - _normal_cdf(-b / s)
        else:
            mean = _normal_cdf(b / s) - _normal_cdf(a / s)
        outside = _normal_cdf(a / s) + _normal_cdf(-b / s)  # 1 - mean, with its digits
        return {"a": a, "b": b}, ObservableStats(mean=mean, variance=mean * outside,
                                                 sup_norm=max(mean, outside))

    L = float(params["L"])
    if L <= 0:
        raise ValueError("clipped_coord requires L > 0")
    s2 = _gaussian_coord_var(target, coord)
    s = math.sqrt(s2)
    # E[X^2 1{|X|<=L}] + L^2 P(|X|>L) for X ~ N(0, s^2)
    z = L / s
    if z < 0.5:  # the closed form below cancels to its z^3 term; its series does not
        inner = s2 * math.sqrt(2.0 / math.pi) * math.fsum(
            (-1) ** (n + 1) * 2 * n * z ** (2 * n + 1) / ((2 * n + 1) * 2 ** n * math.factorial(n))
            for n in range(1, 16))
    else:
        phi = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
        inner = s2 * (2.0 * _normal_cdf(z) - 1.0) - 2.0 * L * s * phi
    var = inner + L * L * 2.0 * _normal_cdf(-z)
    return {"L": L}, ObservableStats(mean=0.0, variance=var, sup_norm=L)


def gaussian_chi_square_norm(mu0: float, s2: float, sigma2: float) -> float:
    """||dmu/dmu*|| in L^2(mu*) for mu = N(mu0, s2), mu* = N(0, sigma2).

    Finite iff s2 < 2 sigma2; equals 1 iff mu = mu*.
    """
    if not (s2 > 0.0 and sigma2 > 0.0):
        raise ValueError("variances must be > 0")
    if s2 >= 2.0 * sigma2:
        raise ValueError(f"||dmu/dmu*|| diverges: initial variance {s2} >= 2 * {sigma2}")
    d = 2.0 * sigma2 - s2
    if d == math.inf:
        raise ValueError(f"||dmu/dmu*|| overflows: 2 * target variance {sigma2} is not finite")
    # int mu^2 / mu* = sigma2 / sqrt(s2 d) exp(mu0^2 / d), with no cancellation;
    # sqrt(s2) sqrt(d), since s2 d underflows to 0 where s2 is subnormal
    try:
        val = sigma2 / (math.sqrt(s2) * math.sqrt(d)) * math.exp(mu0 * mu0 / d)
    except OverflowError:
        val = math.inf
    if val == math.inf:
        raise ValueError(f"||dmu/dmu*|| overflows: initial mean {mu0} is too far out for "
                         f"variance {s2} against {sigma2}")
    # the norm is at least 1 (Cauchy-Schwarz); rounding can leave it an ulp below
    return max(1.0, math.sqrt(val))


def gaussian_start(target, initial: tuple[float, float]) -> tuple[float, float]:
    """The (mean, var) of the Gaussian start ``initial`` on a 1-D ``target``."""
    if target.dim != 1:
        raise ValueError("non-stationary starts are supported in 1-D only")
    return initial


def start_norm(target, initial: tuple[float, float] | None) -> float:
    """||dmu/dmu*|| of the start ``initial`` (None: stationary) on ``target``,
    a :class:`GaussianIso` or a Gaussian ``targets.TargetModel``."""
    return 1.0 if initial is None else gaussian_chi_square_norm(
        *gaussian_start(target, initial), target.marginal_var(0))
