"""Sub-gamma (Bernstein) moment bound algebra.

The whole guarantee machinery rests on the two-parameter family of convex
functions

    psi_{v,b}(lam) = lam^2 v / (2 (1 - lam b)),   0 <= lam < 1/b,

its one-sided Legendre transform psi*, and the inverse of psi*.  All three
have closed forms and are implemented exactly; no series expansions are used
near the pole lam -> 1/b.  A pair is a :class:`BernsteinPair`, an immutable
named tuple ``(v, b)`` checked on every construction path.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

__all__ = ["BernsteinPair", "psi", "psi_star", "psi_star_inv"]


class BernsteinPair(namedtuple("BernsteinPair", "v b")):
    """Variance proxy ``v`` and scale ``b`` of a sub-gamma moment bound.

    ``v`` controls the Gaussian regime of the tail, ``b`` the exponential
    regime.  Both must be finite and nonnegative; a pair with
    ``v == b == 0`` is degenerate and rejected by :func:`psi_star`.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # namedtuple's, and so _replace, skips __new__

    def __new__(cls, v: float, b: float):
        if not 0.0 <= v < math.inf:
            raise ValueError(f"variance proxy v must be finite and >= 0, got {v}")
        if not 0.0 <= b < math.inf:
            raise ValueError(f"scale b must be finite and >= 0, got {b}")
        return tuple.__new__(cls, (v, b))


def psi(pair: BernsteinPair, lam: float) -> float:
    """Evaluate psi_{v,b}(lam) = lam^2 v / (2 (1 - lam b)).

    Returns ``inf`` for lam*b >= 1 (the bound is vacuous there); raises on
    a negative or NaN lam.
    """
    if not lam >= 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if pair.b > 0.0 and lam * pair.b >= 1.0:
        return math.inf
    return lam * lam * pair.v / (2.0 * (1.0 - lam * pair.b))


def psi_star(pair: BernsteinPair, r: float) -> float:
    """One-sided Legendre transform of psi:

        psi*(r) = sup_{0 <= lam < 1/b} { lam r - psi(lam) }
                = 2 r^2 / ( v (1 + sqrt(1 + 2 b r / v))^2 ).

    The v = 0 edge is the analytic limit r/b (the closed form is 0/0 there),
    and r = inf the limit inf (the closed form is inf/inf, or 0*inf at b = 0).
    Where r^2 or 2 b r / v overflows, the same form divided through by r,
    2 r / (sqrt(v/r) + sqrt(v/r + 2b))^2, is taken below its rounding error
    and clamped to the largest float: a finite value at or below psi*.
    """
    if not r >= 0.0:
        raise ValueError(f"deviation r must be >= 0, got {r}")
    if pair.v == 0.0:
        if pair.b == 0.0:
            raise ValueError("degenerate Bernstein pair: v = b = 0")
        return r / pair.b
    if r == math.inf:
        return math.inf
    root = math.sqrt(1.0 + 2.0 * pair.b * r / pair.v)
    value = 2.0 * r * r / (pair.v * (1.0 + root) ** 2)
    if root < math.inf and value < math.inf:
        return value
    scale = 2.0 / (math.sqrt(pair.v / r) + math.sqrt(pair.v / r + 2.0 * pair.b)) ** 2
    # each of the few roundings is within 2^-53; 2^-48 covers them all
    return min(r * scale, sys.float_info.max) * (1.0 - 2.0 ** -48)


def psi_star_inv(pair: BernsteinPair, eta: float) -> float:
    """Inverse of the Legendre transform: sqrt(2 v eta) + b eta."""
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return math.sqrt(2.0 * pair.v * eta) + pair.b * eta
