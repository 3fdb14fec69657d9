"""Target distributions, momentum laws and bounded observables.

Targets are Gibbs measures nu* ~ exp(-beta V) with known Poincare constant;
momentum laws are the mean-zero refresh distributions rho*.  Observables are
bounded functions of the position with closed-form statistics wherever the
target is Gaussian, and quadrature-based statistics for 1-D targets
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hypocoercivity import ObservableStats

__all__ = [
    "TargetModel",
    "MomentumModel",
    "Observable",
    "builtin_target",
    "builtin_observable",
    "observable_stats_quadrature",
    "gaussian_chi_square_norm",
    "estimate_poincare_1d",
    "linear_tilt",
    "scale_potential",
]


@dataclass(frozen=True)
class TargetModel:
    """A target nu* ~ exp(-beta V) on R^dim.

    ``potential`` and ``gradient`` must accept arrays of shape (dim,) and
    batches of shape (n, dim), row by row: a batch maps to shape (n,) for the
    potential and (n, dim) for the gradient (the Langevin engine steps
    replicas as one batch).  ``hessian`` is the
    constant Hessian for quadratic potentials (enables exact event-time
    inversion and exact Hamiltonian flow); ``hessian_bound(center, radius)``
    returns a bound on the Hessian operator norm over the given ball and is
    required for thinning with non-quadratic potentials.
    """

    name: str
    dim: int
    beta: float
    potential: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    poincare_const: float
    hessian: Optional[np.ndarray] = None
    hessian_bound: Optional[Callable[[np.ndarray, float], float]] = None

    @property
    def is_quadratic(self) -> bool:
        return self.hessian is not None

    def stationary_cov(self) -> np.ndarray:
        """Position covariance (beta H)^(-1) for quadratic potentials."""
        if self.hessian is None:
            raise ValueError(f"target '{self.name}' has no closed-form covariance")
        return np.linalg.inv(self.hessian) / self.beta

    def marginal_var(self, coord: int = 0) -> float:
        return float(self.stationary_cov()[coord, coord])

    def sample_position(self, rng: np.random.Generator, size: int | None = None):
        """Exact draw from nu* (quadratic potentials only)."""
        cov = self.stationary_cov()
        chol = np.linalg.cholesky(cov)
        n = 1 if size is None else size
        z = rng.standard_normal((n, self.dim))
        qs = z @ chol.T
        return qs[0] if size is None else qs


@dataclass(frozen=True)
class MomentumModel:
    """Refresh law rho* for the momentum/velocity variable.

    gaussian: N(0, (mass/beta) I), kappa_p = 1/(mass*beta).
    rademacher: uniform on {-1, +1}^d, kappa_p = 1.
    """

    kind: str
    mass: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown momentum law '{self.kind}'")
        if not self.mass > 0.0 or not self.beta > 0.0:
            raise ValueError("mass and beta must be > 0")

    @property
    def kappa_p(self) -> float:
        """Per-component velocity second moment E[p_1^2] / m^2."""
        if self.kind == "gaussian":
            return 1.0 / (self.mass * self.beta)
        return 1.0

    def sample(self, rng: np.random.Generator, dim: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(dim) * math.sqrt(self.mass / self.beta)
        return rng.integers(0, 2, size=dim) * 2.0 - 1.0


@dataclass(frozen=True)
class Observable:
    """Bounded observable of the position with its exact statistics."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    stats: ObservableStats

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return self.f(q)


# ---------------------------------------------------------------------------
# built-in targets

# the parameter names each built-in target and observable takes
_TARGET_PARAMS = {"gaussian_iso": {"dim", "h", "beta"}, "gaussian_aniso": {"H", "beta"},
                  "double_well": {"beta", "poincare_const"}}
_OBSERVABLE_PARAMS = {"sin": {"omega"}, "cos": {"omega"}, "indicator": {"a", "b"},
                      "clipped_coord": {"L"}}


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
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{kind} parameter {key} must be finite, got {value!r}")


def builtin_target(name: str, **params) -> TargetModel:
    """Construct one of the built-in targets.

    gaussian_iso(dim, h, beta): V = h|q|^2/2, Poincare constant beta*h.
    gaussian_aniso(H, beta): V = q^T H q / 2, Poincare constant beta*h_min.
    double_well(beta, poincare_const): V = (q^2-1)^2/4 in 1-D; the Poincare
        constant has no closed form and must be supplied (see
        :func:`estimate_poincare_1d` for a numerical estimate).

    Unknown names and parameters, and parameter values that are not finite,
    raise ``ValueError``.
    """
    _check_params("target", name, params, _TARGET_PARAMS)
    if name == "gaussian_iso":
        dim = float(params.get("dim", 1))
        h = float(params.get("h", 1.0))
        beta = float(params.get("beta", 1.0))
        if h <= 0 or beta <= 0 or dim < 1 or dim != int(dim):
            raise ValueError("gaussian_iso requires h > 0, beta > 0 and an integer dim >= 1")
        dim = int(dim)
        H = h * np.eye(dim)
        return TargetModel(
            name="gaussian_iso",
            dim=dim,
            beta=beta,
            potential=lambda q: 0.5 * h * np.sum(np.square(q), axis=-1),
            gradient=lambda q: h * np.asarray(q, dtype=float),
            poincare_const=beta * h,
            hessian=H,
        )

    if name == "gaussian_aniso":
        H = np.atleast_2d(np.asarray(params["H"], dtype=float))
        beta = float(params.get("beta", 1.0))
        if beta <= 0:
            raise ValueError("gaussian_aniso requires beta > 0")
        if not np.allclose(H, H.T):
            raise ValueError("H must be symmetric")
        evals = np.linalg.eigvalsh(H)
        if evals[0] <= 0:
            raise ValueError("H must be positive definite")
        return TargetModel(
            name="gaussian_aniso",
            dim=H.shape[0],
            beta=beta,
            potential=lambda q: 0.5 * np.sum(np.asarray(q) * (np.asarray(q) @ H.T), axis=-1),
            gradient=lambda q: np.asarray(q, dtype=float) @ H.T,
            poincare_const=beta * float(evals[0]),
            hessian=H,
        )

    if name == "double_well":
        beta = float(params.get("beta", 1.0))
        if "poincare_const" not in params:
            raise ValueError(
                "double_well has no closed-form Poincare constant; "
                "pass poincare_const= explicitly"
            )
        C = float(params["poincare_const"])
        if C <= 0 or beta <= 0:
            raise ValueError("double_well requires beta > 0 and poincare_const > 0")

        def _pot(q):
            x = np.asarray(q, dtype=float)[..., 0]
            return (x**2 - 1.0) ** 2 / 4.0

        def _grad(q):
            q = np.asarray(q, dtype=float)
            return q * (q**2 - 1.0)

        def _hess_bound(center, radius):
            # |V''(x)| = |3x^2 - 1| <= 3(|c|+r)^2 + 1 on the window
            c = float(np.abs(np.asarray(center)).max())
            return 3.0 * (c + radius) ** 2 + 1.0

        return TargetModel(
            name="double_well",
            dim=1,
            beta=beta,
            potential=_pot,
            gradient=_grad,
            poincare_const=C,
            hessian_bound=_hess_bound,
        )


# ---------------------------------------------------------------------------
# observables


def _ndtr(x: float) -> float:
    """Standard normal CDF.  scipy is imported on first use, so that commands
    that need none of it (the CLI's closed-form ones) do not load it."""
    from scipy.special import ndtr as cdf

    return cdf(x)


def _gaussian_coord_var(target: TargetModel, coord: int) -> float:
    if not target.is_quadratic:
        raise ValueError("closed-form stats require a Gaussian target")
    return target.marginal_var(coord)


def builtin_observable(name: str, target: TargetModel, coord: int = 0, **params) -> Observable:
    """Bounded built-in observables of a single position coordinate.

    sin(omega), cos(omega): trig observables with characteristic-function
        statistics under Gaussian targets.
    indicator(a, b): 1_{[a,b]}(q_coord).
    clipped_coord(L): clip(q_coord, -L, L).

    Raw (unclipped) coordinates are rejected; the guarantees require bounded
    observables.  Unknown names and parameters, parameter values that are not
    finite, and a ``coord`` that is not an index of the target's coordinates
    raise ``ValueError``.
    """
    if name in ("coord", "raw_coord", "identity"):
        raise ValueError(
            "unbounded observables are not admitted; use clipped_coord(L)"
        )
    _check_params("observable", name, params, _OBSERVABLE_PARAMS)
    if not (isinstance(coord, (int, np.integer)) and not isinstance(coord, bool)
            and 0 <= coord < target.dim):
        raise ValueError(f"coord must be an integer in [0, {target.dim}), got {coord!r}")

    if name == "sin":
        omega = float(params.get("omega", 1.0))
        s2 = _gaussian_coord_var(target, coord)
        mean = 0.0
        var = 0.5 * (1.0 - math.exp(-2.0 * omega * omega * s2))
        return Observable(
            name=f"sin({omega}*q{coord})",
            f=lambda q: np.sin(omega * np.asarray(q)[..., coord]),
            stats=ObservableStats(mean=mean, variance=var, sup_norm=1.0),
        )

    if name == "cos":
        omega = float(params.get("omega", 1.0))
        s2 = _gaussian_coord_var(target, coord)
        mean = math.exp(-omega * omega * s2 / 2.0)
        var = 0.5 * (1.0 + math.exp(-2.0 * omega * omega * s2)) - mean * mean
        return Observable(
            name=f"cos({omega}*q{coord})",
            f=lambda q: np.cos(omega * np.asarray(q)[..., coord]),
            stats=ObservableStats(mean=mean, variance=var, sup_norm=1.0 + abs(mean)),
        )

    if name == "indicator":
        a, b = float(params["a"]), float(params["b"])
        if not a < b:
            raise ValueError("indicator requires a < b")
        s2 = _gaussian_coord_var(target, coord)
        s = math.sqrt(s2)
        mean = float(_ndtr(b / s) - _ndtr(a / s))
        var = mean * (1.0 - mean)
        return Observable(
            name=f"indicator[{a},{b}](q{coord})",
            f=lambda q: (
                (np.asarray(q)[..., coord] >= a) & (np.asarray(q)[..., coord] <= b)
            ).astype(float),
            stats=ObservableStats(mean=mean, variance=var, sup_norm=max(mean, 1.0 - mean)),
        )

    if name == "clipped_coord":
        L = float(params["L"])
        if L <= 0:
            raise ValueError("clipped_coord requires L > 0")
        s2 = _gaussian_coord_var(target, coord)
        s = math.sqrt(s2)
        # E[X^2 1{|X|<=L}] + L^2 P(|X|>L) for X ~ N(0, s^2)
        z = L / s
        phi = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
        inner = s2 * (2.0 * _ndtr(z) - 1.0) - 2.0 * L * s * phi
        var = inner + L * L * 2.0 * (1.0 - _ndtr(z))
        return Observable(
            name=f"clip(q{coord},{L})",
            f=lambda q: np.clip(np.asarray(q)[..., coord], -L, L),
            stats=ObservableStats(mean=0.0, variance=var, sup_norm=L),
        )


def observable_stats_quadrature(f: Callable[[np.ndarray], np.ndarray],
                                target: TargetModel) -> ObservableStats:
    """Mean/variance of a 1-D observable by adaptive quadrature against nu*
    on [-40, 40]; ``f`` maps one position, of shape (1,), to one value.

    The sup norm is estimated on a dense grid (diagnostic quality; built-in
    observables ship exact sup norms instead).
    """
    from scipy import integrate

    if target.dim != 1:
        raise ValueError("quadrature stats are only available in 1-D")
    beta = target.beta
    lim = 40.0

    def f1(x):
        return float(f(np.array([x])))

    def dens(x):
        return math.exp(-beta * float(target.potential(np.array([x]))))

    Z, _ = integrate.quad(dens, -lim, lim, limit=200)
    mean, _ = integrate.quad(lambda x: f1(x) * dens(x), -lim, lim, limit=200)
    mean /= Z
    second, _ = integrate.quad(lambda x: f1(x) ** 2 * dens(x), -lim, lim, limit=200)
    second /= Z
    grid = np.linspace(-lim, lim, 20001)
    sup = float(np.max(np.abs(np.array([f1(x) for x in grid]) - mean)))
    return ObservableStats(mean=mean, variance=max(second - mean * mean, 0.0), sup_norm=sup)


# ---------------------------------------------------------------------------
# perturbed targets (alternative models for UQ experiments)


def linear_tilt(target: TargetModel, delta: float) -> TargetModel:
    """Alternative target with potential V(q) + delta * q_0 (1-D).

    For a Gaussian base N(0, 1/(beta h)) this is the mean-shifted Gaussian
    N(-delta/h, 1/(beta h)); the Poincare constant is shift invariant.
    Intended for stationary-expectation computations, not for simulation
    (no exact position sampler is attached).
    """
    if target.dim != 1:
        raise ValueError("linear_tilt is 1-D only")
    base_pot, base_grad = target.potential, target.gradient

    return TargetModel(
        name=f"{target.name}+tilt({delta})",
        dim=1,
        beta=target.beta,
        potential=lambda q: base_pot(q) + delta * np.asarray(q)[..., 0],
        gradient=lambda q: base_grad(q) + np.array([delta]),
        poincare_const=target.poincare_const,
        hessian=None,
        hessian_bound=target.hessian_bound,
    )


def scale_potential(target: TargetModel, factor: float) -> TargetModel:
    """Alternative target with potential factor * V(q) (variance scaling for
    Gaussian bases); the Poincare constant scales by the same factor."""
    if factor <= 0:
        raise ValueError("factor must be > 0")
    base_pot, base_grad = target.potential, target.gradient
    return TargetModel(
        name=f"{target.name}*{factor}",
        dim=target.dim,
        beta=target.beta,
        potential=lambda q: factor * base_pot(q),
        gradient=lambda q: factor * base_grad(q),
        poincare_const=factor * target.poincare_const,
        hessian=None if target.hessian is None else factor * target.hessian,
        hessian_bound=target.hessian_bound,
    )


# ---------------------------------------------------------------------------
# chi-square prefactor


def gaussian_chi_square_norm(mu0: float, s2: float, sigma2: float) -> float:
    """||dmu/dmu*|| in L^2(mu*) for mu = N(mu0, s2), mu* = N(0, sigma2).

    Finite iff s2 < 2 sigma2; equals 1 iff mu = mu*.
    """
    if not (s2 > 0.0 and sigma2 > 0.0):
        raise ValueError("variances must be > 0")
    if s2 >= 2.0 * sigma2:
        raise ValueError(
            f"||dmu/dmu*|| diverges: initial variance {s2} >= 2 * {sigma2}"
        )
    # int mu(x)^2 / mu*(x) dx via Gaussian integral algebra
    a = 1.0 / s2 - 1.0 / (2.0 * sigma2)
    sigma = math.sqrt(sigma2)
    val = (
        sigma / (math.sqrt(2.0 * math.pi) * s2)
        * math.sqrt(math.pi / a)
        * math.exp(mu0 * mu0 * (1.0 / (s2 * s2 * a) - 1.0 / s2))
    )
    return math.sqrt(val)


# ---------------------------------------------------------------------------
# Poincare-constant estimator (diagnostic)


def estimate_poincare_1d(target: TargetModel) -> float:
    """Numerical estimate of the Poincare constant of nu* ~ exp(-beta V) in 1-D.

    Discretizes the Dirichlet form int |g'|^2 dnu* against int g^2 dnu* on a
    uniform grid of 2000 points on [-6, 6] and returns the second-smallest
    generalized eigenvalue (the smallest is 0 for constants): the spectral
    gap, the convention of ``TargetModel.poincare_const`` (beta h for
    ``gaussian_iso``).  This is an estimate, not a certified bound.
    """
    if target.dim != 1:
        raise ValueError("estimator is 1-D only")
    n = 2000
    x = np.linspace(-6.0, 6.0, n)
    dx = x[1] - x[0]
    w = np.exp(-target.beta * target.potential(x[:, None]))
    w_mid = 0.5 * (w[:-1] + w[1:])
    # stiffness K: sum w_mid (g_{k+1}-g_k)^2 / dx, tridiagonal; mass M: sum w_k g_k^2 dx,
    # diagonal.  K g = lambda M g is the symmetric tridiagonal problem of
    # M^(-1/2) K M^(-1/2), solved in O(n) for its two smallest eigenvalues.
    k_diag = np.zeros(n)
    k_diag[:-1] += w_mid / dx
    k_diag[1:] += w_mid / dx
    scale = 1.0 / np.sqrt(w * dx)
    from scipy.linalg import eigh_tridiagonal

    vals = eigh_tridiagonal(k_diag * scale * scale, -w_mid / dx * scale[:-1] * scale[1:],
                            eigvals_only=True, select="i", select_range=(0, 1))
    return float(vals[1])
