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

from .catalog import _TARGET_PARAMS, _check_params, builtin_stats, gaussian_iso
from .hypocoercivity import ObservableStats

__all__ = [
    "TargetModel",
    "MomentumModel",
    "Observable",
    "builtin_target",
    "builtin_observable",
    "observable_stats_quadrature",
    "stationary_expectation_1d",
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
        for name in ("mass", "beta"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    @property
    def kappa_p(self) -> float:
        """Per-component velocity second moment E[p_1^2] / m^2."""
        if self.kind == "gaussian":
            return 1.0 / (self.mass * self.beta)
        return 1.0

    def draw(self, rng: np.random.Generator) -> float:
        """One component of a draw from rho*, taking from ``rng`` the bits
        that ``sample(rng, 1)`` takes."""
        if self.kind == "gaussian":
            return rng.standard_normal() * math.sqrt(self.mass / self.beta)
        # bit 31 of one 32-bit draw, as ``rng.integers(0, 2)`` takes it (its
        # bounded draw never rejects on a range of 2), at a third of the cost;
        # a tuple lookup maps it to +-1 without NumPy-scalar arithmetic
        return (-1.0, 1.0)[rng.random(dtype=np.float32) >= 0.5]

    def sample(self, rng: np.random.Generator, dim: int) -> np.ndarray:
        if dim <= 2:
            # numpy's sized call costs about three scalar draws, and the
            # scalar draws take the same bits from the stream
            return np.array([self.draw(rng) for _ in range(dim)])
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
    if name == "gaussian_iso":
        law = gaussian_iso(**params)
        dim, h, beta = law.dim, law.h, law.beta
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

    _check_params("target", name, params, _TARGET_PARAMS)
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
            c = abs(float(center[0]))
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


def builtin_observable(name: str, target: TargetModel, coord: int = 0, **params) -> Observable:
    """Bounded built-in observables of a single position coordinate, with
    their statistics from :func:`hypoguard.catalog.builtin_stats`, which
    raises ``ValueError`` for every input it rejects.

    sin(omega), cos(omega): trig observables.
    indicator(a, b): 1_{[a,b]}(q_coord).
    clipped_coord(L): clip(q_coord, -L, L).
    """
    values, stats = builtin_stats(name, target, coord, **params)
    if name in ("sin", "cos"):
        omega, trig = values["omega"], np.sin if name == "sin" else np.cos
        return Observable(
            name=f"{name}({omega}*q{coord})",
            f=lambda q: trig(omega * np.asarray(q)[..., coord]),
            stats=stats,
        )

    if name == "indicator":
        a, b = values["a"], values["b"]
        return Observable(
            name=f"indicator[{a},{b}](q{coord})",
            f=lambda q: (
                (np.asarray(q)[..., coord] >= a) & (np.asarray(q)[..., coord] <= b)
            ).astype(float),
            stats=stats,
        )

    L = values["L"]
    return Observable(
        name=f"clip(q{coord},{L})",
        f=lambda q: np.clip(np.asarray(q)[..., coord], -L, L),
        stats=stats,
    )


_QUAD_LIM = 40.0


def stationary_expectation_1d(target: TargetModel) -> Callable[..., float]:
    """The map ``expect(g, **options)`` = E_nu*[g], g a function of a scalar
    x, for a 1-D target: exp(-beta V) is normalised once, here, by adaptive
    quadrature on [-40, 40], and each call integrates g against it there,
    passing ``options`` to ``scipy.integrate.quad`` (imported on first use)."""
    if target.dim != 1:
        raise ValueError(f"quadrature expectations are 1-D only, not dim {target.dim}")
    from scipy.integrate import quad

    def raw(x: float) -> float:
        try:
            return math.exp(-target.beta * float(target.potential(np.array([x]))))
        except OverflowError:
            raise ValueError(f"target '{target.name}': -beta V exceeds the float range on "
                             f"[-{_QUAD_LIM:g}, {_QUAD_LIM:g}]") from None

    Z = quad(raw, -_QUAD_LIM, _QUAD_LIM)[0]

    def expect(g: Callable[[float], float], **options) -> float:
        return quad(lambda x: g(x) * (raw(x) / Z), -_QUAD_LIM, _QUAD_LIM, **options)[0]

    return expect


def observable_stats_quadrature(f: Callable[[np.ndarray], np.ndarray],
                                target: TargetModel) -> ObservableStats:
    """Mean/variance of a 1-D observable by adaptive quadrature against nu*
    (:func:`stationary_expectation_1d`); ``f`` maps positions of shape
    (n, 1) to values of shape (n,), as :func:`time_average` requires.

    The sup norm is estimated on a dense grid, in one call of ``f``
    (diagnostic quality; built-in observables ship exact sup norms instead).
    """
    expect = stationary_expectation_1d(target)

    def f1(x):
        return float(f(np.array([x])))

    mean = expect(f1, limit=200)
    second = expect(lambda x: f1(x) ** 2, limit=200)
    grid = np.linspace(-_QUAD_LIM, _QUAD_LIM, 20001)
    sup = float(np.max(np.abs(np.asarray(f(grid[:, None]), dtype=float) - mean)))
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
    Gaussian bases); the Poincare constant, the Hessian and its bound scale
    by the same factor."""
    if factor <= 0:
        raise ValueError("factor must be > 0")
    base_pot, base_grad, base_bound = target.potential, target.gradient, target.hessian_bound
    return TargetModel(
        name=f"{target.name}*{factor}",
        dim=target.dim,
        beta=target.beta,
        potential=lambda q: factor * base_pot(q),
        gradient=lambda q: factor * base_grad(q),
        poincare_const=factor * target.poincare_const,
        hessian=None if target.hessian is None else factor * target.hessian,
        hessian_bound=None if base_bound is None else (
            lambda center, radius: factor * base_bound(center, radius)),
    )


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
    # stiffness K: sum w_mid (g_{k+1}-g_k)^2 / dx, tridiagonal, with w = exp(-beta V)
    # and w_mid its cell means; mass M: sum w_k g_k^2 dx, diagonal.  K g = lambda M g
    # is the symmetric tridiagonal problem of M^(-1/2) K M^(-1/2), solved in O(n)
    # for its two smallest eigenvalues.  Its entries are ratios of w, taken from
    # differences of beta V, since w itself underflows where beta V is large.
    du = np.diff(target.beta * target.potential(x[:, None]))
    diag = np.zeros(n)
    diag[:-1] += 0.5 * (1.0 + np.exp(-du))  # w_mid[k] / w[k]
    diag[1:] += 0.5 * (1.0 + np.exp(du))  # w_mid[k] / w[k + 1]
    off = -np.cosh(0.5 * du)  # -w_mid[k] / sqrt(w[k] w[k + 1])
    from scipy.linalg import eigh_tridiagonal

    vals = eigh_tridiagonal(diag / (dx * dx), off / (dx * dx),
                            eigvals_only=True, select="i", select_range=(0, 1))
    return float(vals[1])
