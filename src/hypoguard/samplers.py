"""Event-driven simulation of PDMP samplers and a discretized Langevin
integrator, with exact-in-time trajectory averaging.

All samplers share the same RNG discipline: a root seed is split into named
streams (initial condition, bounce/flip clocks, refresh clock, diffusion
noise) through counter-based ``SeedSequence`` keys, so adding a clock never
perturbs an existing stream and identical (config, seed) pairs give
bit-identical trajectories.

The zig-zag sampler and the bouncy particle sampler (BPS) share one event
clock and one flight loop.  Along the flight q + s v every jump clock has
rate beta [u . grad V(q + s v)]^+: u = v for the single BPS bounce clock,
and u = v_i e_i for the zig-zag flip clock of component i.  For quadratic
potentials the rate is affine in s and inverted in closed form; for
general potentials the clocks are simulated by thinning against a
caller-certified rate bound on a sliding window.  A violated bound is a
hard error, never a silent acceptance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .targets import MomentumModel, TargetModel

__all__ = [
    "Segment",
    "EventRecord",
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
# length of the window over which a thinning bound must dominate the rate
_THINNING_WINDOW = 0.5


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent named RNG stream derived from a root seed."""
    key = _STREAMS[name]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(key,))))


def replica_seed(root_seed: int, replica: int) -> int:
    """Derived root seed for an independent replica."""
    ss = np.random.SeedSequence(root_seed, spawn_key=(1000 + replica,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class ThinningBoundError(RuntimeError):
    """The caller-supplied thinning bound was violated; the simulation is not
    exact and must be aborted."""


@dataclass(frozen=True)
class Segment:
    """Deterministic flow piece starting at (q0, p0) at time t0."""

    t0: float
    duration: float
    q0: np.ndarray
    p0: np.ndarray


@dataclass(frozen=True)
class EventRecord:
    time: float
    kind: str  # bounce | flip | refresh | hhmc-resample
    p_before: np.ndarray
    p_after: np.ndarray


class HamiltonianFlow:
    """Exact flow of H(q, p) = q^T H q / 2 + |p|^2 / (2m), per eigenmode.

    H must be positive definite: a zero mode has no normalisable Gibbs
    measure to sample.
    """

    def __init__(self, hessian: np.ndarray, mass: float):
        self.mass = mass
        evals, self.U = np.linalg.eigh(hessian)
        if evals[0] <= 0.0:
            raise ValueError("exact flow requires a positive definite Hessian")
        self.omega = np.sqrt(evals / mass)

    def __call__(self, q0: np.ndarray, p0: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        """Advance by time t; q0, p0 of shape (d,) or (n, d), t scalar or (n,)."""
        y = q0 @ self.U
        w = p0 @ self.U
        t = np.asarray(t, dtype=float)
        th = np.multiply.outer(t, self.omega) if t.ndim else t * self.omega
        c, s = np.cos(th), np.sin(th)
        m = self.mass
        yt = y * c + w / m * (s / self.omega)
        wt = -y * (m * self.omega) * s + w * c
        return yt @ self.U.T, wt @ self.U.T


@dataclass
class Trajectory:
    """Seed-reproducible record of a simulated path on [0, horizon].

    PDMP / exact-flow trajectories store flow segments that tile the time
    horizon plus the event log; discretized trajectories store the step grid
    in ``times``/``qs``/``ps`` and set ``discretized``.
    """

    sampler: str
    horizon: float
    mass: float
    segments: list[Segment] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    final_q: Optional[np.ndarray] = None
    final_p: Optional[np.ndarray] = None
    flow: Optional[HamiltonianFlow] = None
    discretized: bool = False
    times: Optional[np.ndarray] = None
    qs: Optional[np.ndarray] = None
    ps: Optional[np.ndarray] = None


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
    rate: Callable[[float], float],
    bound: Callable[[float, float], float],
    window: float,
    rng: np.random.Generator,
    horizon: float,
) -> float:
    """First arrival of the clock with intensity ``rate`` by thinning.

    ``bound(t, w)`` must dominate the rate on [t, t + w]; a proposal at which
    the actual rate exceeds the bound raises :class:`ThinningBoundError`
    (exactness is certified, never assumed).  Returns inf if no event occurs
    before ``horizon``.
    """
    if window <= 0.0:
        raise ValueError("thinning window must be > 0")
    t = 0.0
    while t < horizon:
        m = bound(t, window)
        if m < 0.0:
            raise ValueError("thinning bound must be >= 0")
        if m == 0.0:
            t += window
            continue
        s = rng.exponential() / m
        if s > window:
            t += window
            continue
        t += s
        r = rate(t)
        if r > m * (1.0 + 1e-9):
            raise ThinningBoundError(
                f"rate {r} exceeds certified bound {m} at t = {t}"
            )
        if rng.random() * m < r:
            return t
    return math.inf


# ---------------------------------------------------------------------------
# samplers


def _initial_state(
    target: TargetModel,
    momentum: MomentumModel,
    rng: np.random.Generator,
    q0: Optional[np.ndarray],
    p0: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    if q0 is None:
        q0 = target.sample_position(rng)
    if p0 is None:
        p0 = momentum.sample(rng, target.dim)
    return np.array(q0, dtype=float), np.array(p0, dtype=float)


def _first_jump(target: TargetModel, slopes: Callable, q: np.ndarray, v: np.ndarray,
                grad: np.ndarray, rng: np.random.Generator, horizon: float) -> tuple[float, int]:
    """First arrival among the jump clocks along the flight q + s v.

    Clock i has rate beta [u_i . grad V(q + s v)]^+, where ``slopes(v, w)``
    lists u_i . w over the clock directions u_i and ``grad`` is grad V(q).
    Returns (time, i); the time is inf if no clock fires.  Quadratic
    potentials give affine rates, inverted in closed form; otherwise each
    clock is thinned against |d/ds u_i . grad V| <= |u_i| |v| sup |Hess V|.
    """
    beta = target.beta
    if target.is_quadratic:
        taus = [invert_affine_rate(beta * a, beta * b, rng.exponential())
                for a, b in zip(slopes(v, grad), slopes(v, target.hessian @ v))]
    else:
        if target.hessian_bound is None:
            raise ValueError(f"target '{target.name}' needs a hessian_bound for thinning")
        speed2 = float(np.dot(v, v))
        speed = math.sqrt(speed2)
        taus = []
        # |u_i|^2 = slopes(v, v)_i for both direction maps, so reach = beta |u_i| |v|
        for i, u2 in enumerate(slopes(v, v)):
            reach = beta * math.sqrt(u2 * speed2)

            def rate(s: float) -> float:
                return beta * max(0.0, slopes(v, target.gradient(q + s * v))[i])

            def bound(t: float, w: float) -> float:
                return rate(t) + reach * target.hessian_bound(q + t * v, speed * w) * w

            taus.append(sample_by_thinning(rate, bound, _THINNING_WINDOW, rng, horizon))
    tau = min(taus)
    return tau, taus.index(tau)


def _simulate_pdmp(sampler: str, clock: str, slopes: Callable, jump: Callable,
                   target: TargetModel, momentum: MomentumModel, refresh_rate: float,
                   T: float, seed: int, q0, p0) -> Trajectory:
    """Linear flight between refreshes and the jumps of the ``clock`` stream.

    ``slopes(v, w)`` lists u_i . w over the jump clocks' directions u_i (see
    :func:`_first_jump`).  grad V is evaluated once per event point and
    shared by the next clocks and the jump.  ``jump(p, grad, i)`` returns
    the momentum after clock i fires, or None where the jump is undefined,
    in which case the momentum is refreshed.
    """
    if T <= 0.0 or refresh_rate < 0.0:
        raise ValueError("need T > 0 and refresh_rate >= 0")
    rng_init = stream_rng(seed, "init")
    rng_clock = stream_rng(seed, clock)
    rng_refresh = stream_rng(seed, "refresh")
    q, p = _initial_state(target, momentum, rng_init, q0, p0)
    m = momentum.mass
    traj = Trajectory(sampler=sampler, horizon=T, mass=m)
    grad = target.gradient(q)
    t = 0.0
    while t < T:
        v = p / m
        tau_c, i = _first_jump(target, slopes, q, v, grad, rng_clock, T - t)
        tau_r = rng_refresh.exponential() / refresh_rate if refresh_rate > 0 else math.inf
        tau = min(tau_c, tau_r, T - t)
        traj.segments.append(Segment(t0=t, duration=tau, q0=q, p0=p))
        q = q + tau * v
        t += tau
        if t >= T:
            break
        grad = target.gradient(q)
        p_new = jump(p, grad, i) if tau_c <= tau_r else None
        kind = clock
        if p_new is None:
            kind, p_new = "refresh", momentum.sample(rng_refresh, target.dim)
        traj.events.append(EventRecord(time=t, kind=kind, p_before=p, p_after=p_new))
        p = p_new
    traj.final_q, traj.final_p = q, p
    return traj


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
    """
    def bounce(p, grad, i):
        # reflection is undefined at a critical point of V
        return reflect(p, grad, factor=reflection_factor) if np.any(grad) else None

    # one bounce clock, direction u = v
    return _simulate_pdmp("bps", "bounce", lambda v, w: [float(np.dot(v, w))], bounce,
                          target, momentum, refresh_rate, T, seed, q0, p0)


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
                          lambda p, grad, i: flip(p, i), target, momentum,
                          refresh_rate, T, seed, q0, v0)


def simulate_hhmc(
    target: TargetModel,
    momentum: MomentumModel,
    resample_rate: float,
    T: float,
    seed: int,
    step: float = 0.01,
    q0: Optional[np.ndarray] = None,
    p0: Optional[np.ndarray] = None,
) -> Trajectory:
    """Hybrid HMC: Hamiltonian flow for Exp(resample_rate) durations, then
    full momentum resample from rho*.

    The flow is exact (phase-space rotation) for quadratic potentials; for
    general potentials a leapfrog integrator with the given step is used and
    the trajectory is marked discretized.
    """
    if T <= 0.0 or resample_rate <= 0.0:
        raise ValueError("need T > 0 and resample_rate > 0")
    rng_init = stream_rng(seed, "init")
    rng_dur = stream_rng(seed, "duration")
    rng_refresh = stream_rng(seed, "refresh")
    q, p = _initial_state(target, momentum, rng_init, q0, p0)
    m = momentum.mass

    if target.is_quadratic:
        traj = Trajectory(sampler="hhmc", horizon=T, mass=m,
                          flow=HamiltonianFlow(target.hessian, m))
        t = 0.0
        while t < T:
            tau = min(rng_dur.exponential() / resample_rate, T - t)
            traj.segments.append(Segment(t0=t, duration=tau, q0=q, p0=p))
            q, p = traj.flow(q, p, tau)
            t += tau
            if t >= T:
                break
            p_new = momentum.sample(rng_refresh, target.dim)
            traj.events.append(EventRecord(time=t, kind="hhmc-resample",
                                           p_before=p, p_after=p_new))
            p = p_new
        traj.final_q, traj.final_p = q, p
        return traj

    # leapfrog route: discretized step grid with resamples snapped to steps
    n_steps = int(math.ceil(T / step))
    times = np.linspace(0.0, n_steps * step, n_steps + 1)
    qs = np.empty((n_steps + 1, target.dim))
    ps = np.empty((n_steps + 1, target.dim))
    qs[0], ps[0] = q, p
    next_resample = rng_dur.exponential() / resample_rate
    events: list[EventRecord] = []
    for k in range(n_steps):
        if times[k] >= next_resample:
            p_new = momentum.sample(rng_refresh, target.dim)
            events.append(EventRecord(time=times[k], kind="hhmc-resample",
                                      p_before=p, p_after=p_new))
            p = p_new
            next_resample += rng_dur.exponential() / resample_rate
        p = p - 0.5 * step * target.gradient(q)
        q = q + step * p / m
        p = p - 0.5 * step * target.gradient(q)
        qs[k + 1], ps[k + 1] = q, p
    traj = Trajectory(sampler="hhmc", horizon=float(times[-1]), mass=m,
                      discretized=True, times=times, qs=qs, ps=ps, events=events)
    traj.final_q, traj.final_p = q, p
    return traj


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
    of :func:`simulate_langevin_batch`.
    """
    q, p = _initial_state(target, momentum, stream_rng(seed, "init"), q0, p0)
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
    ``target.gradient`` is called on (R, d) batches.  The path is stored as
    one (R, n + 1, d) array; replica r's trajectory holds its contiguous
    (n + 1, d) slice.
    """
    if T <= 0.0 or step <= 0.0 or gamma <= 0.0:
        raise ValueError("need T > 0, step > 0, gamma > 0")
    q, p = np.array(q0, dtype=float), np.array(p0, dtype=float)
    R, d = q.shape
    rngs = [stream_rng(seed, "noise") for seed in seeds]
    m, beta = momentum.mass, momentum.beta
    n_steps = int(math.ceil(T / step))
    times = np.linspace(0.0, n_steps * step, n_steps + 1)
    qs = np.empty((R, n_steps + 1, d))
    ps = np.empty((R, n_steps + 1, d))
    qs[:, 0], ps[:, 0] = q, p
    half = 0.5 * step
    c1 = math.exp(-gamma * step / m)
    c2 = math.sqrt(m / beta * (1.0 - c1 * c1))
    for k in range(n_steps):
        j = k % _NOISE_BLOCK
        if j == 0:
            # a block of draws from a stream equals the same number of
            # per-step draws, so each replica keeps its noise bit for bit
            size = (min(_NOISE_BLOCK, n_steps - k), d)
            noise = np.stack([rng.standard_normal(size) for rng in rngs], axis=1)
        p = p - half * target.gradient(q)
        q = q + half * p / m
        p = c1 * p + c2 * noise[j]
        q = q + half * p / m
        p = p - half * target.gradient(q)
        qs[:, k + 1], ps[:, k + 1] = q, p
    return [Trajectory(sampler="langevin", horizon=float(times[-1]), mass=m,
                       discretized=True, times=times, qs=qs[r], ps=ps[r],
                       final_q=qs[r, -1], final_p=ps[r, -1])
            for r in range(R)]


# ---------------------------------------------------------------------------
# time averaging


def time_average(traj: Trajectory, f, order: int = 5):
    """Time average (1/T) int_0^T f(Q_t) dt.

    Flow segments are integrated with fixed-order Gauss-Legendre quadrature
    (exact for polynomial f along linear flight up to degree 2*order-1);
    discretized trajectories use the trapezoid rule on the step grid.  ``f``
    (a function or an ``Observable``) maps position arrays of shape (n, d)
    to shape (n,), and the average is a float.  A tuple of such functions
    gives a tuple of their averages from one pass over the path, each equal
    bit for bit to the average of that function alone.
    """
    funcs = [g.f if hasattr(g, "f") else g for g in (f if isinstance(f, tuple) else (f,))]
    if traj.discretized:
        avgs = [float(np.trapezoid(np.asarray(func(traj.qs), dtype=float), traj.times)
                      / traj.times[-1]) for func in funcs]
        return tuple(avgs) if isinstance(f, tuple) else avgs[0]

    nodes, weights = np.polynomial.legendre.leggauss(order)
    # map from [-1, 1] to [0, 1]
    nodes01 = 0.5 * (nodes + 1.0)
    w01 = 0.5 * weights

    # split each segment into panels of length <= 0.5 so the fixed-order
    # rule stays accurate on long flights
    q0 = np.array([s.q0 for s in traj.segments])
    p0 = np.array([s.p0 for s in traj.segments])
    dur = np.array([s.duration for s in traj.segments])
    k = np.maximum(np.ceil(dur / 0.5).astype(int), 1)
    sub = np.repeat(dur / k, k)
    # panel j of a segment starts at (d / n) * j, j counted within the segment
    start = sub * (np.arange(sub.size) - np.repeat(np.cumsum(k) - k, k))
    q0, p0 = np.repeat(q0, k, axis=0), np.repeat(p0, k, axis=0)
    if traj.flow is None:
        v = p0 / traj.mass
        position = lambda s: q0 + s[:, None] * v
    else:
        position = lambda s: traj.flow(q0, p0, s)[0]

    # each function's node sums, in the order a call with it alone makes them
    totals = [0.0] * len(funcs)
    for x, w in zip(nodes01, w01):
        q = position(start + x * sub)
        for j, func in enumerate(funcs):
            totals[j] += w * float(np.dot(sub, np.asarray(func(q), dtype=float)))
    avgs = [total / traj.horizon for total in totals]
    return tuple(avgs) if isinstance(f, tuple) else avgs[0]


def export_csv(traj: Trajectory, path) -> None:
    """Write the trajectory skeleton as CSV rows (t, q..., p..., event kind).

    Flow trajectories emit one row per segment start plus the final state;
    discretized trajectories emit one row per step.
    """
    def fmt(x):
        return repr(float(x))

    if traj.discretized:
        rows = list(zip(traj.times, traj.qs, traj.ps))
    else:
        rows = [(seg.t0, seg.q0, seg.p0) for seg in traj.segments]
        rows.append((traj.horizon, traj.final_q, traj.final_p))
    d = len(rows[0][1])
    ev_by_time = {e.time: e.kind for e in traj.events}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *[f"q{i}" for i in range(d)], *[f"p{i}" for i in range(d)],
                         "event"])
        for t, q, p in rows:
            writer.writerow([fmt(t), *map(fmt, q), *map(fmt, p), ev_by_time.get(float(t), "")])
