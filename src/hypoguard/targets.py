"""Target distributions, momentum laws and bounded observables.

Targets are Gibbs measures nu* ~ exp(-beta V) with known Poincare constant;
momentum laws are the mean-zero refresh distributions rho*.  Observables are
bounded functions of the position with closed-form statistics wherever the
target is Gaussian, and quadrature-based statistics for 1-D targets
otherwise.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
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
    required for thinning with non-quadratic potentials.  In one dimension
    zig-zag and BPS pass both callables one reused 1-element array per
    trajectory: they may return it, but must not keep it.
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

    @functools.cached_property
    def _position_factor(self) -> np.ndarray:
        """Cholesky factor of ``stationary_cov()``, computed on first use and
        kept read-only: every exact draw from this target reuses it."""
        chol = np.linalg.cholesky(self.stationary_cov())
        chol.flags.writeable = False
        return chol

    def sample_position(self, rng: np.random.Generator, size: int | None = None):
        """Exact draw from nu*: one position of shape (dim,), or ``size`` of
        them as shape (size, dim).  Gaussian for a quadratic potential; the
        built-in ``double_well`` draws by rejection, and any other target has
        no exact draw and raises, so its samplers need a given start."""
        if self.hessian is None:
            raise ValueError(f"target '{self.name}' has no exact stationary draw; "
                             "pass a start position")
        chol = self._position_factor
        n = 1 if size is None else size
        z = rng.standard_normal((n, self.dim))
        qs = z @ chol.T
        return qs[0] if size is None else qs

    @functools.cached_property
    def hessian_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the constant Hessian, as
        ``np.linalg.eigh`` returns them, computed on first use and kept
        read-only: the modes of the exact Hamiltonian flow, which every
        exact-HHMC replica on this target reuses."""
        if self.hessian is None:
            raise ValueError(f"target '{self.name}' has no constant Hessian")
        modes = tuple(np.linalg.eigh(self.hessian))
        for a in modes:
            a.flags.writeable = False
        return modes


class _DoubleWell(TargetModel):
    """The built-in double well, drawn exactly by rejection from N(0, s^2),
    s = 1.5: in u = q^2 the log ratio -beta (u - 1)^2 / 4 + u / (2 s^2) of
    exp(-beta V) to the proposal is concave, maximal at u = 1 + 1 / (beta s^2)
    for all beta > 0, where it is log M = 1 / (2 s^2) + 1 / (4 beta s^4).  V is
    read from the target: a log ratio above 0 raises, as does log M > 10."""

    def sample_position(self, rng: np.random.Generator, size: int | None = None):
        s = 1.5
        log_m = 1.0 / (2.0 * s * s) + 1.0 / (4.0 * self.beta * s ** 4)
        if log_m > 10.0:
            raise ValueError(f"target '{self.name}' at beta {self.beta}: an exact draw "
                             f"takes about exp({log_m:.4g}) proposals; pass a start position")
        qs = []
        while len(qs) < (1 if size is None else size):
            q = s * rng.standard_normal()
            ratio = q * q / (2.0 * s * s) - self.beta * float(self.potential(np.array([q]))) - log_m
            if ratio > 1e-12:
                raise ValueError(f"target '{self.name}': log acceptance ratio {ratio} "
                                 f"at q = {q} exceeds the double-well envelope")
            if math.log(rng.random()) <= ratio:
                qs.append([q])
        return np.array(qs[0]) if size is None else np.array(qs)


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
    double_well(beta, poincare_const): V = (q^2-1)^2/4 in 1-D, drawn exactly;
        the Poincare constant has no closed form and must be supplied (see
        :func:`estimate_poincare_1d` for a numerical estimate).

    Unknown names and parameters, and parameter values that are not finite,
    raise ``ValueError``.
    """
    if name == "gaussian_iso":
        law = gaussian_iso(**params)
        dim, h, beta = law.dim, law.h, law.beta
        H = h * np.eye(dim)
        # a 0-d factor gives the IEEE products of the Python float h, with
        # less overhead per call on a 1-element array
        h0 = np.array(h)
        return TargetModel(
            name="gaussian_iso",
            dim=dim,
            beta=beta,
            potential=lambda q: 0.5 * h * np.sum(np.square(q), axis=-1),
            gradient=lambda q: h0 * np.asarray(q, dtype=float),
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
        if (1.0 / float(evals[0])) / beta == math.inf:
            raise ValueError(f"the largest variance 1 / (beta h_min) overflows for "
                             f"beta = {beta}, h_min = {evals[0]}")
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

        return _DoubleWell(
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
_QUAD_PANELS = 32  # the uniform start partition of [-_QUAD_LIM, _QUAD_LIM]
_QUAD_MAX_PANELS = 2000
_QUAD_RTOL = 1e-13

# Gauss-Kronrod 7/15 on [-1, 1], as in QUADPACK's dqk15 (Piessens, de
# Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer 1983): the
# Kronrod nodes from the outermost in, their weights, and the Gauss weights
# of the nodes of odd index (0 is the last).
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the 15 nodes as (sign, index into _XGK), the centre last, and each one's
# Gauss weight (0.0 off the Gauss nodes)
_GK_NODES = tuple((s, j) for j in range(7) for s in (-1.0, 1.0)) + ((1.0, 7),)
_GK_WEIGHTS = tuple(_WGK[j] for _, j in _GK_NODES)
_G_WEIGHTS = tuple(_WG[j // 2] if j % 2 else 0.0 for _, j in _GK_NODES)


def _kronrod_panels(panel_values, a: float, b: float, cuts=()):
    """Integrate over [a, b] from the start partition of ``_QUAD_PANELS``
    equal panels plus ``cuts``: ``panel_values(q)`` returns the integrand at
    a panel's 15 Kronrod nodes, positions q of shape (15, 1).  The panel with
    the largest |K15 - G7| is bisected until the sum of those differences is at
    most ``_QUAD_RTOL`` times the K15 integral of |integrand|, or until
    ``_QUAD_MAX_PANELS`` panels; the result is the exactly rounded sum of
    the panels' K15 values.  Deterministic: ties go to the earlier panel."""
    step = (b - a) / _QUAD_PANELS
    edges = sorted({a + k * step for k in range(_QUAD_PANELS)} | {b}
                   | {float(c) for c in cuts if a < c < b})
    heap, panels = [], []

    def add(lo: float, hi: float) -> None:
        c, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fs = panel_values(np.array([c + s * hw * _XGK[j] for s, j in _GK_NODES])[:, None]).tolist()
        k15 = hw * math.fsum(w * f for w, f in zip(_GK_WEIGHTS, fs))
        g7 = hw * math.fsum(w * f for w, f in zip(_G_WEIGHTS, fs))
        k_abs = hw * math.fsum(w * abs(f) for w, f in zip(_GK_WEIGHTS, fs))
        panels.append((k15, abs(k15 - g7), k_abs))
        heapq.heappush(heap, (-abs(k15 - g7), len(panels) - 1, lo, hi))

    for lo, hi in zip(edges, edges[1:]):
        add(lo, hi)
    err = math.fsum(p[1] for p in panels)
    scale = math.fsum(p[2] for p in panels)
    while err > _QUAD_RTOL * scale and len(heap) < _QUAD_MAX_PANELS:
        _, i, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the worst panel cannot be split in floating point
        add(lo, mid)
        add(mid, hi)
        _, e, s = panels[i]
        panels[i] = (0.0, 0.0, 0.0)
        err += panels[-1][1] + panels[-2][1] - e
        scale += panels[-1][2] + panels[-2][2] - s
    return math.fsum(p[0] for p in panels)


def stationary_expectation_1d(target: TargetModel) -> Callable[..., float]:
    """The map ``expect(g, points=())`` = E_nu*[g] for a 1-D target, g mapping
    positions of shape (n, 1) to values of shape (n,) as an :class:`Observable`
    does (any other shape raises ``ValueError``), by adaptive Gauss-Kronrod 7/15
    quadrature on [-40, 40] (:func:`_kronrod_panels`), one call of g per panel:
    from 32 equal panels plus the breakpoints ``points`` (where g jumps or
    kinks), it bisects until the |K15 - G7| estimates sum to at most 1e-13 of
    the integral of |g| against nu*, under a cap of 2000 panels."""
    if target.dim != 1:
        raise ValueError(f"quadrature expectations are 1-D only, not dim {target.dim}")

    def density(q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            w = np.exp(-target.beta * target.potential(q))
        if np.any(np.isinf(w)):
            raise ValueError(f"target '{target.name}': -beta V exceeds the float range "
                             f"on [-{_QUAD_LIM:g}, {_QUAD_LIM:g}]")
        return w

    Z = _kronrod_panels(density, -_QUAD_LIM, _QUAD_LIM)

    def expect(g: Callable[[np.ndarray], np.ndarray], points=()) -> float:
        def values(q):
            gq = np.asarray(g(q), dtype=float)
            if gq.shape != (len(q),):
                raise ValueError(f"g of positions of shape {q.shape} must have shape "
                                 f"({len(q)},), not {gq.shape}")
            return gq * density(q)
        return _kronrod_panels(values, -_QUAD_LIM, _QUAD_LIM, points) / Z

    return expect


def observable_stats_quadrature(f: Callable[[np.ndarray], np.ndarray],
                                target: TargetModel) -> ObservableStats:
    """Mean/variance of a 1-D observable by the adaptive Gauss-Kronrod
    quadrature of :func:`stationary_expectation_1d`, with no breakpoints (a
    jump of ``f`` is found by bisection); ``f`` maps positions of shape
    (n, 1) to values of shape (n,), as the quadrature and time averages take.

    The sup norm is estimated on a dense grid, in one call of ``f``
    (diagnostic quality; built-in observables ship exact sup norms instead).
    """
    expect = stationary_expectation_1d(target)
    mean = expect(f)
    second = expect(lambda q: np.square(f(q)))
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
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    base_pot, base_grad = target.potential, target.gradient

    return TargetModel(
        name=f"{target.name}+tilt({delta})",
        dim=1,
        beta=target.beta,
        potential=lambda q: base_pot(q) + delta * np.asarray(q)[..., 0],
        gradient=lambda q: base_grad(q) + delta,
        poincare_const=target.poincare_const,
        hessian=None,
        hessian_bound=target.hessian_bound,
    )


def scale_potential(target: TargetModel, factor: float) -> TargetModel:
    """Alternative target with potential factor * V(q) (variance scaling for
    Gaussian bases); the Poincare constant, the Hessian and its bound scale
    by the same factor."""
    if not 0.0 < factor < math.inf:
        raise ValueError(f"factor must be finite and > 0, got {factor}")
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
    ``gaussian_iso``).  That eigenvalue is found by Sturm-count bisection of
    the symmetric tridiagonal form (:func:`_tridiagonal_eigenvalue`).  This
    is an estimate, not a certified bound.
    """
    if target.dim != 1:
        raise ValueError("estimator is 1-D only")
    n = 2000
    x = np.linspace(-6.0, 6.0, n)
    dx = x[1] - x[0]
    # stiffness K: sum w_mid (g_{k+1}-g_k)^2 / dx, tridiagonal, with w = exp(-beta V)
    # and w_mid its cell means; mass M: sum w_k g_k^2 dx, diagonal.  K g = lambda M g
    # is the symmetric tridiagonal problem of M^(-1/2) K M^(-1/2), whose second
    # eigenvalue bisection finds at O(n) per Sturm count.  Its entries are ratios
    # of w, taken from differences of beta V, since w itself underflows where
    # beta V is large.
    du = np.diff(target.beta * target.potential(x[:, None]))
    diag = np.zeros(n)
    diag[:-1] += 0.5 * (1.0 + np.exp(-du))  # w_mid[k] / w[k]
    diag[1:] += 0.5 * (1.0 + np.exp(du))  # w_mid[k] / w[k + 1]
    off = -np.cosh(0.5 * du)  # -w_mid[k] / sqrt(w[k] w[k + 1])
    return _tridiagonal_eigenvalue((diag / (dx * dx)).tolist(), (off / (dx * dx)).tolist(), 1)


def _tridiagonal_eigenvalue(diag: list, off: list, k: int) -> float:
    """The (k+1)-th smallest eigenvalue of the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``, by bisection of the
    Gershgorin interval on the Sturm count (Barth, Martin & Wilkinson,
    Numer. Math. 9, 1967; LAPACK's dstebz), on Python floats.

    The count of eigenvalues below x is the number of negative pivots of the
    LDL^T factorisation of T - x I.  A pivot at most ``pivmin`` (as in
    dstebz) counts as negative and is moved to -pivmin, so a zero pivot
    divides by no zero.  Bisection stops when the bracket is at most 2 eps
    of its larger end, or cannot be split."""
    e2 = [0.0] + [e * e for e in off]
    pivmin = sys.float_info.min * max(1.0, *e2)
    rad = [abs(lo) + abs(hi) for lo, hi in zip([0.0, *off], [*off, 0.0])]
    lo = min(d - r for d, r in zip(diag, rad))
    hi = max(d + r for d, r in zip(diag, rad))

    def below(x: float) -> int:
        count, pivot = 0, 1.0
        for d, b2 in zip(diag, e2):
            pivot = d - x - b2 / pivot
            if pivot <= pivmin:
                count += 1
                pivot = min(pivot, -pivmin)
        return count

    tol = 2.0 * sys.float_info.epsilon
    while hi - lo > tol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid) > k:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
