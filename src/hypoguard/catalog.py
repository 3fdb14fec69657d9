"""The built-in targets and observables by name, on plain floats.

This module holds the parameters each built-in takes, their checks, the
law of ``gaussian_iso`` and the exact statistics of every built-in
observable under a Gaussian coordinate marginal.  It imports no NumPy, so
the closed-form commands (``hypoguard ci`` and ``constants``) on a
``gaussian_iso`` target with ``sin`` or ``cos`` run without it.
:mod:`hypoguard.targets` builds its models on the same checks and takes
each observable's statistics from :func:`builtin_stats`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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


@dataclass(frozen=True)
class GaussianIso:
    """The law of ``gaussian_iso``, N(0, I / (beta h)) on R^dim."""

    dim: int
    h: float
    beta: float

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
    return GaussianIso(dim=int(dim), h=h, beta=beta)


def _gaussian_coord_var(target, coord: int) -> float:
    if not target.is_quadratic:
        raise ValueError("closed-form stats require a Gaussian target")
    return target.marginal_var(coord)


def builtin_stats(name: str, target, coord: int = 0, **params) -> tuple[dict, ObservableStats]:
    """The parameters of built-in observable ``name`` of position coordinate
    ``coord``, as floats with their defaults, and its exact statistics on
    ``target`` (a :class:`GaussianIso` or a ``targets.TargetModel``).

    sin(omega), cos(omega): characteristic-function statistics.
    indicator(a, b): 1_{[a,b]}; clipped_coord(L): clip(q, -L, L); both read
        the normal CDF from scipy (imported on first use).

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

    from .targets import _ndtr

    if name == "indicator":
        a, b = float(params["a"]), float(params["b"])
        if not a < b:
            raise ValueError("indicator requires a < b")
        s = math.sqrt(_gaussian_coord_var(target, coord))
        mean = float(_ndtr(b / s) - _ndtr(a / s))
        var = mean * (1.0 - mean)
        return {"a": a, "b": b}, ObservableStats(mean=mean, variance=var,
                                                 sup_norm=max(mean, 1.0 - mean))

    L = float(params["L"])
    if L <= 0:
        raise ValueError("clipped_coord requires L > 0")
    s2 = _gaussian_coord_var(target, coord)
    s = math.sqrt(s2)
    # E[X^2 1{|X|<=L}] + L^2 P(|X|>L) for X ~ N(0, s^2)
    z = L / s
    phi = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    inner = s2 * (2.0 * _ndtr(z) - 1.0) - 2.0 * L * s * phi
    var = float(inner + L * L * 2.0 * (1.0 - _ndtr(z)))
    return {"L": L}, ObservableStats(mean=0.0, variance=var, sup_norm=L)
