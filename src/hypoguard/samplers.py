"""Event-driven simulation of PDMP samplers and a discretized Langevin
integrator, with trajectory time averages by quadrature: 5-point
Gauss-Legendre on panels of length <= 0.5 along each flight.  Along linear
flight this is exact, up to rounding, for polynomials of degree <= 9; for
other observables it is an approximation, and a coarse one for the
indicator and the clip, whose kinks fall inside panels.

All samplers share the same RNG discipline: a root seed is split into named
streams (initial condition, bounce/flip clocks, refresh clock, diffusion
noise) through counter-based ``SeedSequence`` keys, so adding a clock never
perturbs an existing stream and identical (config, seed) pairs give
bit-identical trajectories.

The zig-zag sampler and the bouncy particle sampler (BPS) share one flight
loop and one kit that builds their event clocks and holds the state, on
Python floats for every target in one dimension and on arrays otherwise.
Along the flight q + s v every jump clock has rate
beta [u . grad V(q + s v)]^+: u = v for the single BPS bounce clock, and
u = v_i e_i for the zig-zag flip clock of component i.  For quadratic
potentials the rate is affine in s and inverted in closed form; for
general potentials the clocks are simulated by thinning against an affine
envelope of the rate, certified by the target's Hessian bound on a sliding
window, up to the next refresh, by :func:`sample_by_thinning` in every
dimension.  A violated envelope is a hard error, never a silent
acceptance.  In one dimension the jumps act on floats too: a flip is -p,
and a bounce makes the IEEE operations of :func:`reflect` on 1-vectors;
the target's gradient and Hessian bound see one reused 1-element array
per trajectory, read at once into a float.
Hybrid HMC follows the exact Hamiltonian flow of a quadratic potential and
refuses any other target; its flights come from a loop over single
duration draws, taken from blocks of 64, and its eigenbasis from the
target, which computes it once.

A :class:`Trajectory` keeps its flights and events as the columns that
package code reads; its ``segments`` and ``events`` record arrays, built on
first read, are views for outside readers.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .targets import MomentumModel, TargetModel

__all__ = [
    "Trajectory",
    "ThinningBoundError",
    "stream_rng",
    "replica_seed",
    "reflect",
    "flip",
    "invert_affine_rate",
    "sample_by_thinning",
    "simulate_bps",
    "simulate_zigzag",
    "simulate_hhmc",
    "simulate_langevin",
    "simulate_langevin_batch",
    "time_average",
    "export_csv",
]

_STREAMS = {"init": 0, "bounce": 1, "refresh": 2, "flip": 3, "noise": 4, "duration": 5}
# Langevin noise is drawn this many steps at a time per replica, which keeps
# the noise buffer small next to the stored path
_NOISE_BLOCK = 1024
# a stream that draws one kind only is drawn this many values at a time
_DRAW_BLOCK = 64
# length of the window on which a thinning clock's affine envelope must hold
_THINNING_WINDOW = 0.5


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent named RNG stream derived from a root seed."""
    key = _STREAMS[name]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(key,))))


def replica_seed(root_seed: int, replica: int) -> int:
    """Derived root seed for an independent replica."""
    ss = np.random.SeedSequence(root_seed, spawn_key=(1000 + replica,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _draws(block: Callable[[int], Iterable]) -> Iterator:
    """Single draws from a stream that draws one kind only, taken from
    ``block(n)``, which makes n of them at once: a block of k draws from a
    stream equals k single draws, bit for bit."""
    while True:
        yield from block(_DRAW_BLOCK)


class ThinningBoundError(RuntimeError):
    """The caller-supplied thinning bound was violated; the simulation is not
    exact and must be aborted."""


class HamiltonianFlow:
    """Exact flow of H(q, p) = q^T H q / 2 + |p|^2 / (2m), per eigenmode.

    H must be positive definite: a zero mode has no normalisable Gibbs
    measure to sample.
    """

    def __init__(self, modes: tuple[np.ndarray, np.ndarray], mass: float):
        """``modes`` = (eigenvalues, eigenvectors) of H, as ``np.linalg.eigh``
        returns them (a target computes them once: ``hessian_modes``)."""
        self.mass = mass
        evals, self.U = modes
        if evals[0] <= 0.0:
            raise ValueError("exact flow requires a positive definite Hessian")
        self.omega = np.sqrt(evals / mass)

    def _angles(self, t):
        """cos and sin of the rotation angles omega t."""
        t = np.asarray(t, dtype=float)
        th = np.multiply.outer(t, self.omega) if t.ndim else t * self.omega
        return np.cos(th), np.sin(th)

    def __call__(self, q0: np.ndarray, p0: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        """Advance by time t; q0, p0 of shape (d,) or (n, d), t scalar or (n,)."""
        y, w = q0 @ self.U, p0 @ self.U
        c, s = self._angles(t)
        m = self.mass
        yt = y * c + w / m * (s / self.omega)
        wt = -y * (m * self.omega) * s + w * c
        return yt @ self.U.T, wt @ self.U.T

    def positions(self, q0: np.ndarray, p0: np.ndarray) -> Callable:
        """The map from t to the position after time t, equal bit for bit to
        ``self(q0, p0, t)[0]`` without the momentum's work.  q0 and p0 are
        projected on the eigenmodes once, so :func:`time_average` reads the
        positions at all its quadrature nodes through one map."""
        y, w = q0 @ self.U, p0 @ self.U / self.mass

        def at(t) -> np.ndarray:
            c, s = self._angles(t)
            return (y * c + w * (s / self.omega)) @ self.U.T
        return at


@dataclass
class Trajectory:
    """Seed-reproducible record of a simulated path on [0, horizon].

    ``flights`` holds the columns of the flights: ``t0`` and ``duration`` of
    shape (n,), ``q0`` and ``p0`` of shape (n, d); on PDMP and exact-flow
    paths the flights tile [0, horizon].  ``kinds`` lists the kind of each
    event (bounce | flip | refresh | hhmc-resample); event k ends flight k, at
    time ``t0[k + 1]``, so the momenta on either side of it are ``p0[k]`` and
    ``p0[k + 1]``.  Package code reads only these columns; ``segments``
    (fields ``t0``, ``duration``, ``q0``, ``p0``) and ``events`` (``time``,
    ``kind``) are record arrays of them for outside readers, built on first
    read and kept.  Langevin trajectories, the only discretized ones
    (``discretized``: ``times`` is set), store the step grid in
    ``times``/``qs``/``ps`` and have no flights or events.
    """

    sampler: str
    horizon: float
    mass: float
    flights: tuple
    kinds: Sequence[str] = ()
    final_q: Optional[np.ndarray] = None
    final_p: Optional[np.ndarray] = None
    flow: Optional[HamiltonianFlow] = None
    times: Optional[np.ndarray] = None
    qs: Optional[np.ndarray] = None
    ps: Optional[np.ndarray] = None

    @property
    def discretized(self) -> bool:
        return self.times is not None

    @functools.cached_property
    def segments(self) -> np.recarray:
        d = np.shape(self.flights[2])[1]
        return np.rec.fromarrays(self.flights, dtype=[
            ("t0", float), ("duration", float), ("q0", float, (d,)), ("p0", float, (d,))])

    @functools.cached_property
    def events(self) -> np.recarray:
        return np.rec.fromarrays((self.flights[0][1:len(self.kinds) + 1], self.kinds),
                                 dtype=[("time", float), ("kind", "U13")])


# ---------------------------------------------------------------------------
# velocity updates


def reflect(p: np.ndarray, grad: np.ndarray, factor: float = 2.0) -> np.ndarray:
    """Elastic reflection of p on the hyperplane orthogonal to grad:

        p -> p - factor * (p . grad / |grad|^2) grad.

    factor = 2 is the norm-preserving involution used by the bouncy particle
    sampler; other values exist only for fault-injection experiments.
    """
    g2 = float(np.dot(grad, grad))
    if g2 == 0.0:
        raise ValueError("degenerate gradient: reflection undefined")
    return p - factor * (float(np.dot(p, grad)) / g2) * grad


def flip(p: np.ndarray, i: int) -> np.ndarray:
    """Negate component i, leaving all others untouched."""
    if not 0 <= i < len(p):
        raise IndexError(f"component {i} out of range for dimension {len(p)}")
    out = p.copy()
    out[i] = -out[i]
    return out


# ---------------------------------------------------------------------------
# event clocks


def invert_affine_rate(a: float, b: float, e: float) -> float:
    """First arrival of an inhomogeneous Poisson clock with rate [a + b t]^+.

    Solves int_0^tau [a + b s]^+ ds = e exactly for a unit-exponential draw
    ``e``; returns inf when the total mass is below ``e``.
    """
    if e < 0.0:
        raise ValueError("exponential draw must be >= 0")
    if b > 0.0:
        if a >= 0.0:
            return (-a + math.sqrt(a * a + 2.0 * b * e)) / b
        # rate is zero until t0 = -a/b, then grows linearly from 0
        return -a / b + math.sqrt(2.0 * e / b)
    if b == 0.0:
        return e / a if a > 0.0 else math.inf
    # b < 0: rate decays to zero at t1 = -a/b with finite total mass
    if a <= 0.0:
        return math.inf
    total = a * a / (-2.0 * b)
    if e >= total:
        return math.inf
    return (-a + math.sqrt(a * a + 2.0 * b * e)) / b


def sample_by_thinning(
    slope: Callable[[float], float],
    lipschitz: Callable[[float, float], float],
    window: float,
    rng: np.random.Generator,
    horizon: float,
) -> float:
    """First arrival of the clock with intensity [slope(t)]^+ by thinning.

    ``lipschitz(t, w)`` must bound the growth of the signed slope on
    [t, t + w]: slope(t + s) <= slope(t) + L s for 0 <= s <= w.  Each window
    proposes from the affine envelope [slope(t) + L s]^+, inverted exactly
    by :func:`invert_affine_rate`, and accepts a proposal with probability
    [slope]^+ / envelope; a window whose envelope stays <= 0 is crossed
    without a draw.  The slope at a rejected proposal or at a window's end
    starts the next window, so each proposal or window costs one slope
    evaluation.  A proposal at which [slope]^+ exceeds the envelope by more
    than 1e-9 of the envelope's terms raises :class:`ThinningBoundError`
    (exactness is certified, never assumed), and a NaN window, Lipschitz
    bound or slope raises ``ValueError``.  Returns inf if no event occurs
    before ``horizon``.
    """
    # "not x > 0" rather than "x <= 0", so that a NaN fails the checks too
    if not window > 0.0:
        raise ValueError(f"thinning window must be > 0, got {window}")
    t, g = 0.0, slope(0.0)
    while t < horizon:
        lip = lipschitz(t, window)
        if not lip >= 0.0:
            raise ValueError(f"thinning Lipschitz constant must be >= 0, got {lip}")
        if g + lip * window > 0.0:
            s = invert_affine_rate(g, lip, rng.exponential())
        elif g != g:
            raise ValueError(f"thinning slope is NaN at t = {t}")
        else:
            s = math.inf
        t_next = t + min(s, window)
        if t_next >= horizon:
            break
        g_next = slope(t_next)
        if s <= window:
            envelope = g + lip * s
            r = max(g_next, 0.0)
            if r - envelope > 1e-9 * (abs(g) + lip * s):
                raise ThinningBoundError(
                    f"rate {r} exceeds certified envelope {envelope} at t = {t_next}"
                )
            if rng.random() * envelope < r:
                return t_next
        t, g = t_next, g_next
    return math.inf


# ---------------------------------------------------------------------------
# samplers


def _initial_state(target: TargetModel, momentum: MomentumModel, seed: int,
                   q0: Optional[np.ndarray], p0: Optional[np.ndarray]) -> tuple:
    # the "init" stream is built only when a start is missing
    if q0 is None or p0 is None:
        rng = stream_rng(seed, "init")
        if q0 is None:
            q0 = target.sample_position(rng)
        if p0 is None:
            p0 = momentum.sample(rng, target.dim)
    return _checked_start(q0, p0, (target.dim,))


def _checked_start(q0, p0, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The start (q0, p0) as float arrays, rejected, naming the position or
    the momentum, unless both have the given shape and finite entries."""
    q, p = np.array(q0, dtype=float), np.array(p0, dtype=float)
    for name, x in (("position", q), ("momentum", p)):
        if x.shape != shape:
            raise ValueError(f"initial {name} must have shape {shape}, got {x.shape}")
        if not all(map(math.isfinite, x.ravel().tolist())):
            raise ValueError(f"initial {name} must be finite, got {x}")
    return q, p


def _check_params(**params: float) -> None:
    """Reject, by name, a horizon, rate, step or friction that is not a
    finite number > 0, or for ``refresh_rate`` >= 0 (0: no refreshes): an
    infinite horizon never ends a flight loop, and a NaN passes every
    comparison that guards one."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value < 0.0 or value == 0.0 and name != "refresh_rate":
            sign = ">=" if name == "refresh_rate" else ">"
            raise ValueError(f"need {name} {sign} 0, got {value}")


def _simulate_pdmp(sampler: str, clock: str, slopes: Callable, jumps: tuple,
                   target: TargetModel, momentum: MomentumModel, refresh_rate: float,
                   T: float, seed: int, q0, p0) -> Trajectory:
    """Linear flight between refreshes and the jumps of the ``clock`` stream.

    ``slopes(v, w)`` lists u_i . w over the jump clocks' directions u_i (see
    :func:`_flight_state`).  ``jumps`` holds the map ``jump(p, grad, i)`` on
    (d,) arrays and on Python floats: the momentum after clock i fires, or
    None where the jump is undefined, in which case the momentum is
    refreshed.  grad V is evaluated once per event point and shared by the
    next clocks and the jump: a (d,) array, or a Python float in the float
    state.  The refresh time, drawn first, ends the clocks' horizon (a later
    jump is never used); the two streams are separate, so the order of the
    draws changes no quadratic-target path.
    :func:`_flight_state` builds the clocks and holds the state on (d,)
    arrays, or on Python floats, with the same bits, for every target in one
    dimension.  The flights are kept as columns and the events as their
    kinds (:class:`Trajectory`).
    """
    _check_params(T=T, refresh_rate=refresh_rate)
    gradient, first_jump, jump, refresh, lift = _flight_state(
        clock, slopes, jumps, target, momentum, seed, target.dim == 1)
    q, p = lift(*_initial_state(target, momentum, seed, q0, p0))
    rng_refresh = stream_rng(seed, "refresh")
    m, d = momentum.mass, target.dim
    segments, kinds = [], []
    grad = gradient(q)
    t = 0.0
    while t < T:
        v = p / m
        tau_r = rng_refresh.exponential() / refresh_rate if refresh_rate > 0 else math.inf
        # not min(), whose two builtin calls per flight cost ~4% of a replica
        horizon = tau_r if tau_r < T - t else T - t
        tau_c, i = first_jump(q, v, grad, horizon)
        tau = tau_c if tau_c < horizon else horizon
        segments.append((t, tau, q, p))
        q = q + tau * v
        t += tau
        if t >= T:
            break
        grad = gradient(q)
        kind, p = clock, (jump(p, grad, i) if tau_c <= tau_r else None)
        if p is None:
            kind, p = "refresh", refresh(rng_refresh)
        kinds.append(kind)
    t0s, taus, qs, ps = zip(*segments)
    flights = (np.array(t0s), np.array(taus), np.reshape(qs, (-1, d)), np.reshape(ps, (-1, d)))
    return Trajectory(sampler, T, m, flights, kinds, np.reshape(q, d), np.reshape(p, d))


def _flight_state(clock: str, slopes: Callable, jumps: tuple, target: TargetModel,
                  momentum: MomentumModel, seed: int, floats: bool) -> tuple:
    """The jump clocks of :func:`_simulate_pdmp`, and its state: on (d,)
    arrays, or with ``floats`` on Python floats with the same operations in
    the same order.  Returns the maps ``gradient(q)``,
    ``first_jump(q, v, grad, horizon)``, ``jump(p, grad, i)``,
    ``refresh(rng)`` and ``lift(q, p)`` from the (d,) start.

    ``first_jump`` gives (time, i) of the first arrival along the flight
    q + s v among the clocks of rates beta [u_i . grad V(q + s v)]^+
    (``slopes(v, w)`` lists u_i . w, ``grad`` is grad V(q)); the time is inf
    if none fires before ``horizon``.  Quadratic potentials give affine
    rates, inverted in closed form from unit exponentials, which the
    ``clock`` stream draws in blocks as it draws nothing else.  Otherwise
    each clock is thinned (:func:`sample_by_thinning`) on the stream's
    generator against the affine envelope of its slope
    g(s) = beta u_i . grad V(q + s v) on windows of length w:
    |g'| <= beta |u_i| |v| sup |Hess V| over the ball of radius |v| w around
    the window's start, which ``hessian_bound`` certifies, so a
    non-quadratic target without one is rejected before any clock is drawn.
    On floats (every target in one dimension) the affine slope is a + b s,
    a = v grad V(q) and b = v (h v) for the 1 x 1 Hessian h, and the reach
    is beta sqrt(v^2 v^2); the gradient and the Hessian bound still act on
    1-element arrays, as user callables expect: one array per trajectory,
    refilled before each call, whose gradient is read at once into the
    float that ``gradient(q)`` returns and ``first_jump`` and the jump take.
    The jump is the float map of ``jumps``.
    """
    quadratic = target.is_quadratic
    if not quadratic and target.hessian_bound is None:
        raise ValueError(f"target '{target.name}' needs a hessian_bound for thinning")
    rng_clock = stream_rng(seed, clock)
    exponentials = _draws(lambda n: rng_clock.exponential(size=n).tolist()) if quadratic else None
    beta, gradient, hessian_bound = target.beta, target.gradient, target.hessian_bound
    if not floats:
        hessian = target.hessian

        def first_jump(q, v, grad, horizon):
            if quadratic:
                taus = [invert_affine_rate(beta * a, beta * b, e) for a, b, e
                        in zip(slopes(v, grad), slopes(v, hessian @ v), exponentials)]
            else:
                speed2 = float(np.dot(v, v))
                speed = math.sqrt(speed2)
                taus = []
                # |u_i|^2 = slopes(v, v)_i for both direction maps, so reach = beta |u_i| |v|
                for i, u2 in enumerate(slopes(v, v)):
                    reach = beta * math.sqrt(u2 * speed2)

                    def slope(s: float) -> float:
                        return beta * slopes(v, grad if s == 0.0 else gradient(q + s * v))[i]

                    def lipschitz(t: float, w: float) -> float:
                        return reach * hessian_bound(q + t * v, speed * w)

                    taus.append(sample_by_thinning(slope, lipschitz, _THINNING_WINDOW, rng_clock,
                                                   horizon))
            tau = min(taus)
            return tau, taus.index(tau)

        return (gradient, first_jump, jumps[0], lambda rng: momentum.sample(rng, target.dim),
                lambda q, p: (q, p))
    # the one position array of this trajectory, refilled before each call
    # of the gradient or the Hessian bound and read at once into a float
    position = np.empty(1)

    def gradient_at(q):
        position[0] = q
        return float(gradient(position)[0])

    if quadratic:
        h = float(target.hessian[0, 0])

        def first_jump(q, v, g, horizon):
            return invert_affine_rate(beta * (v * g), beta * (v * (h * v)), next(exponentials)), 0
    else:
        def first_jump(q, v, g0, horizon):
            speed2 = v * v
            speed, reach = math.sqrt(speed2), beta * math.sqrt(speed2 * speed2)

            def slope(s):
                return beta * (v * (g0 if s == 0.0 else gradient_at(q + s * v)))

            def lipschitz(t, w):
                position[0] = q + t * v
                return reach * hessian_bound(position, speed * w)

            return sample_by_thinning(slope, lipschitz, _THINNING_WINDOW, rng_clock, horizon), 0

    return (gradient_at, first_jump, jumps[1], momentum.draw,
            lambda q, p: (float(q[0]), float(p[0])))


def simulate_bps(
    target: TargetModel,
    momentum: MomentumModel,
    refresh_rate: float,
    T: float,
    seed: int,
    q0: Optional[np.ndarray] = None,
    p0: Optional[np.ndarray] = None,
    reflection_factor: float = 2.0,
) -> Trajectory:
    """Bouncy particle sampler: free flight, gradient bounces, refreshes.

    Flight is q(t) = q + t p/m; bounces arrive at rate beta [(p/m).grad V]^+
    and reflect the momentum elastically in the gradient direction;
    refreshes arrive at rate ``refresh_rate`` and redraw p from rho*.
    A Rademacher law is rejected unless d = 1, before a stream is built: a
    bounce takes p off {-1, +1}^d, so the law would not stay invariant.
    """
    if momentum.kind == "rademacher" and target.dim > 1:
        raise ValueError(f"momentum law 'rademacher' is not invariant under a bounce in "
                         f"dimension {target.dim}: BPS takes it only in dimension 1")

    def bounce(p, grad, i):
        # reflection is undefined at a critical point of V
        return reflect(p, grad, factor=reflection_factor) if np.any(grad) else None

    def bounce_float(p, g, i):
        # the IEEE operations of bounce on the 1-vectors [p] and [g]
        if g == 0.0:
            return None
        g2 = g * g
        if g2 == 0.0:
            raise ValueError("degenerate gradient: reflection undefined")
        return p - reflection_factor * (p * g / g2) * g

    # one bounce clock, direction u = v
    return _simulate_pdmp("bps", "bounce", lambda v, w: [float(np.dot(v, w))],
                          (bounce, bounce_float), target, momentum, refresh_rate, T, seed,
                          q0, p0)


def simulate_zigzag(
    target: TargetModel,
    T: float,
    seed: int,
    refresh_rate: float = 0.0,
    q0: Optional[np.ndarray] = None,
    v0: Optional[np.ndarray] = None,
) -> Trajectory:
    """Zig-zag sampler: unit-speed flight with per-component velocity flips.

    Component i flips at rate beta [v_i d_i V(q)]^+; an optional refresh
    clock (off by default) redraws v uniformly on {-1, +1}^d.
    """
    if v0 is not None and not np.all(np.abs(np.asarray(v0, dtype=float)) == 1.0):
        raise ValueError("zig-zag velocity components must be +-1")
    momentum = MomentumModel(kind="rademacher", beta=target.beta)
    # one flip clock per component i, direction u_i = v_i e_i
    return _simulate_pdmp("zigzag", "flip", lambda v, w: (v * w).tolist(),
                          (lambda p, grad, i: flip(p, i), lambda p, grad, i: -p),
                          target, momentum, refresh_rate, T, seed, q0, v0)


def simulate_hhmc(
    target: TargetModel,
    momentum: MomentumModel,
    resample_rate: float,
    T: float,
    seed: int,
    q0: Optional[np.ndarray] = None,
    p0: Optional[np.ndarray] = None,
) -> Trajectory:
    """Hybrid HMC: exact Hamiltonian flow (a phase-space rotation) for
    Exp(resample_rate) durations, then full momentum resample from rho*.

    Only quadratic potentials have this exact flow, and it keeps
    exp(-beta (V + |p|^2 / 2m)) only with momenta from N(0, m/beta) at the
    target's beta, so any other target, momentum law or momentum beta is
    rejected, by name, before a stream is built.  The durations, one draw
    per flight with the last flight cut at T, and the resampled momenta do
    not depend on the state, so they are all drawn first, and the positions
    then move by one recurrence per eigen-coordinate.  At d = 1 this equals
    flowing one flight at a time bit for bit; at d > 1 the positions differ
    from that by rounding only (about 3e-14 at d = 50).
    """
    _check_params(T=T, resample_rate=resample_rate)
    if not target.is_quadratic:
        raise ValueError(f"target '{target.name}' is not quadratic: hybrid HMC runs "
                         "only its exact flow")
    if momentum.kind != "gaussian":
        raise ValueError(f"momentum law '{momentum.kind}' is not Gaussian: hybrid HMC "
                         "resamples momenta from N(0, m/beta) only")
    if momentum.beta != target.beta:
        raise ValueError(f"momentum beta {momentum.beta} is not the target's beta {target.beta}")
    rng_dur = stream_rng(seed, "duration")
    rng_refresh = stream_rng(seed, "refresh")
    q, p = _initial_state(target, momentum, seed, q0, p0)
    m, d = momentum.mass, target.dim
    durations = _draws(lambda n: rng_dur.exponential(size=n).tolist())
    starts, taus, t = [], [], 0.0
    while t < T:
        tau = next(durations) / resample_rate
        # not min(), as in _simulate_pdmp; t + (T - t) may round below T, and
        # then one more flight follows the cut one
        tau = tau if tau < T - t else T - t
        starts.append(t)
        taus.append(tau)
        t += tau
    starts, taus = np.array(starts), np.array(taus)
    k = len(taus) - 1
    ps = np.concatenate([p[None], momentum.sample(rng_refresh, k * d).reshape(k, d)])
    # in eigen-coordinates y = q U each flight is y -> y cos(omega tau) + b
    # with b = (p U / m) sin(omega tau) / omega, one recurrence per
    # coordinate; the momentum at the end of a flight is resampled unread
    flow = HamiltonianFlow(target.hessian_modes, m)
    th = np.multiply.outer(taus[:k], flow.omega)
    cs = np.cos(th).T.tolist()
    bs = ((ps[:k] @ flow.U) / m * (np.sin(th) / flow.omega)).T.tolist()
    ys = []
    for y, c_col, b_col in zip((q @ flow.U).tolist(), cs, bs):
        col = [y]
        for c, b in zip(c_col, b_col):
            y = y * c + b
            col.append(y)
        ys.append(col)
    qs = np.ascontiguousarray(np.array(ys).T) @ flow.U.T
    qs[0] = q  # the start itself, not its round trip through U
    q, p = flow(qs[-1], ps[-1], taus[-1])
    return Trajectory("hhmc", T, m, (starts, taus, qs, ps), ["hhmc-resample"] * k,
                      final_q=q, final_p=p, flow=flow)


def simulate_langevin(
    target: TargetModel,
    momentum: MomentumModel,
    gamma: float,
    T: float,
    step: float,
    seed: int,
    q0: Optional[np.ndarray] = None,
    p0: Optional[np.ndarray] = None,
) -> Trajectory:
    """Underdamped Langevin dynamics via a kick/drift/OU splitting.

    One step is half kick, half drift, exact Ornstein-Uhlenbeck momentum
    update over the full step, half drift, half kick (second-order weak
    splitting).  The output is discretized: its O(step^2) bias is not
    covered by the exact-process guarantees.  This is the one-replica case
    of :func:`simulate_langevin_batch`.  The momentum law must have the
    target's beta, the temperature of the OU noise.
    """
    if momentum.beta != target.beta:
        raise ValueError(f"momentum beta {momentum.beta} is not the target's beta {target.beta}")
    q, p = _initial_state(target, momentum, seed, q0, p0)
    return simulate_langevin_batch(target, momentum, gamma, T, step, [seed],
                                   q[None], p[None])[0]


def simulate_langevin_batch(
    target: TargetModel,
    momentum: MomentumModel,
    gamma: float,
    T: float,
    step: float,
    seeds: list[int],
    q0: np.ndarray,
    p0: np.ndarray,
) -> list[Trajectory]:
    """The splitting of :func:`simulate_langevin` for R replicas at once.

    Replica r starts at (q0[r], p0[r]) (arrays of shape (R, d)) and draws its
    noise from its own ``stream_rng(seeds[r], "noise")``, so it follows the
    path that ``simulate_langevin`` gives for ``seeds[r]`` and that start.
    ``target.gradient`` is called on (R, d) batches, once per step plus once
    at the start: a step's closing half kick is the next step's opening one.
    A step from (q, p), with kick = (step/2) grad V(q) and noise row z, is
    opened = p - kick and mixed = c1 opened + z, the rows of one (2, R, d)
    pair, so one multiply and one divide give both half drifts
    (step/2) pair / m; then q' = (q + drift[0]) + drift[1], kick' =
    (step/2) grad V(q') and p' = mixed - kick'.  These are the IEEE
    operations of the one-replica splitting in its order, nine NumPy calls
    besides the gradient.  The path is stored time-major, as one
    (n + 1, R, d) array whose row k+1 each step writes in place; replica
    r's trajectory holds the (n + 1, d) view ``qs[:, r]``.
    """
    _check_params(T=T, step=step, gamma=gamma)
    if momentum.beta != target.beta:
        raise ValueError(f"momentum beta {momentum.beta} is not the target's beta {target.beta}")
    R, d = len(seeds), target.dim
    q, p = _checked_start(q0, p0, (R, d))
    rngs = [stream_rng(seed, "noise") for seed in seeds]
    n_steps = int(math.ceil(T / step))
    times = np.linspace(0.0, n_steps * step, n_steps + 1)
    qs = np.empty((n_steps + 1, R, d))
    ps = np.empty((n_steps + 1, R, d))
    qs[0], ps[0] = q, p
    c1 = math.exp(-gamma * step / momentum.mass)
    c2 = math.sqrt(momentum.mass / momentum.beta * (1.0 - c1 * c1))
    # 0-d arrays give the IEEE results of the Python floats, with less
    # overhead per operation on small arrays
    half, m, c1 = np.array(0.5 * step), np.array(momentum.mass), np.array(c1)
    noise = np.empty((min(_NOISE_BLOCK, n_steps), R, d))
    # c1 opened and q + drift[0] go to spare rows: an out= that is also an
    # input takes about twice as long on a 1-element array (R = d = 1)
    pair, drift, spare = np.empty((3, 2, R, d))
    (opened, mixed), (first_drift, second_drift), (damped, midway) = pair, drift, spare
    gradient = target.gradient
    kick = half * gradient(q)
    for k in range(0, n_steps, _NOISE_BLOCK):
        # a block of draws from a stream equals the same number of per-step
        # draws, so each replica keeps its noise bit for bit
        size = min(_NOISE_BLOCK, n_steps - k)
        block = noise[:size]
        for r, rng in enumerate(rngs):
            block[:, r] = rng.standard_normal((size, d))
        block *= c2  # in place: no second block is held
        for z, q_next, p_next in zip(block, qs[k + 1:k + 1 + size], ps[k + 1:k + 1 + size]):
            np.subtract(p, kick, out=opened)
            np.add(np.multiply(c1, opened, out=damped), z, out=mixed)
            np.divide(np.multiply(half, pair, out=drift), m, out=drift)
            q = np.add(np.add(q, first_drift, out=midway), second_drift, out=q_next)
            kick = half * gradient(q)
            p = np.subtract(mixed, kick, out=p_next)
    no_flights = (np.empty(0), np.empty(0), np.empty((0, d)), np.empty((0, d)))
    return [Trajectory("langevin", float(times[-1]), momentum.mass, no_flights,
                       final_q=qs[-1, r], final_p=ps[-1, r], times=times,
                       qs=qs[:, r], ps=ps[:, r])
            for r in range(R)]


# ---------------------------------------------------------------------------
# time averaging


# 5-point Gauss-Legendre on [0, 1], exact to degree 9: NumPy's leggauss(5)
# nodes x and weights w mapped as 0.5 * (x + 1.0) and 0.5 * w, bit for bit,
# not the correctly rounded closed forms, which would move every F_T.
_GL5_NODES = (0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415,
              0.9530899229693319)
_GL5_WEIGHTS = (0.11846344252809464, 0.23931433524968315, 0.28444444444444433,
                0.23931433524968315, 0.11846344252809464)
# time_average evaluates as many quadrature nodes per call as fit this many
# position entries (128 KiB), and one node per call on longer paths
_NODE_BLOCK = 2**14


def time_average(traj: Trajectory, f):
    """Time average (1/T) int_0^T f(Q_t) dt.

    Flights are integrated by 5-point Gauss-Legendre on panels of length
    <= 0.5 (exact to degree 9 for polynomial f along linear flight);
    discretized trajectories use the trapezoid rule on the step grid.  ``f``
    (a function or an ``Observable``) maps position arrays of shape (n, d)
    to shape (n,), and the average is a float.  A tuple of such functions
    gives a tuple of their averages from one pass over the path, each equal
    bit for bit to the average of that function alone.  On flights the five
    nodes are evaluated in groups, as many per call as fit ``_NODE_BLOCK``
    position entries (at least one): each function is called once per
    group, and each node's sum is one ``np.dot`` on its contiguous slice,
    added in node order, so the grouping changes no bit.
    """
    funcs = f if isinstance(f, tuple) else (f,)
    if traj.discretized:
        avgs = [float(np.trapezoid(np.asarray(func(traj.qs), dtype=float), traj.times)
                      / traj.times[-1]) for func in funcs]
        return tuple(avgs) if isinstance(f, tuple) else avgs[0]

    # panels of length <= 0.5 keep the 5-point rule accurate on long flights
    _, dur, q0, p0 = traj.flights
    k = np.maximum(np.ceil(dur / 0.5).astype(int), 1)
    sub = np.repeat(dur / k, k)
    # panel j of a segment starts at (d / n) * j, j counted within the segment
    start = sub * (np.arange(sub.size) - np.repeat(np.cumsum(k) - k, k))
    q0, p0 = np.repeat(q0, k, axis=0), np.repeat(p0, k, axis=0)
    if traj.flow is None:
        v = p0 / traj.mass
        position = lambda s: q0 + s[..., None] * v
    else:
        position = traj.flow.positions(q0, p0)

    # as many nodes per call as fit _NODE_BLOCK position entries, at least one
    n, d = q0.shape
    group = min(len(_GL5_NODES), max(1, _NODE_BLOCK // (n * d)))
    # each function's node sums, in the order a call with it alone makes them
    totals = [0.0] * len(funcs)
    for g in range(0, len(_GL5_NODES), group):
        nodes = np.array(_GL5_NODES[g:g + group])
        # node by node, the positions of a call with that node alone
        q = position(start + nodes[:, None] * sub).reshape(-1, d)
        for j, func in enumerate(funcs):
            values = np.asarray(func(q), dtype=float)
            for i, w in enumerate(_GL5_WEIGHTS[g:g + group]):
                totals[j] += w * float(np.dot(sub, values[i * n:(i + 1) * n]))
    avgs = [total / traj.horizon for total in totals]
    return tuple(avgs) if isinstance(f, tuple) else avgs[0]


def export_csv(traj: Trajectory, path) -> None:
    """Write the trajectory skeleton as CSV rows (t, q..., p..., event kind).

    Flow trajectories emit one row per flight start, event k on row k + 1,
    plus the final state; discretized trajectories emit one row per step.
    """
    if traj.discretized:
        rows = list(zip(traj.times, traj.qs, traj.ps))
    else:
        t0, _, q0, p0 = traj.flights
        rows = [*zip(t0, q0, p0), (traj.horizon, traj.final_q, traj.final_p)]
    d = len(rows[0][1])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *[f"q{i}" for i in range(d)], *[f"p{i}" for i in range(d)],
                         "event"])
        for (t, q, p), kind in itertools.zip_longest(rows, ["", *traj.kinds], fillvalue=""):
            writer.writerow([*(repr(float(x)) for x in (t, *q, *p)), kind])
