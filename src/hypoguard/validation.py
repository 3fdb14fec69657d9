"""Empirical certification experiments.

Each experiment simulates replicas of a sampler at desk scale and asserts a
proven inequality against the empirical data, with an explicit Monte-Carlo
slack term: the inequalities are theorems, so a violation beyond slack
indicates an implementation bug rather than bad luck.

Reports are replayable ((config, seed) -> identical report) and flag
vacuous bounds: an asserted bound weaker than the trivial bound implied by
boundedness of the observable never counts as a pass.

The entropy rates and ``uq_experiment`` simulate nothing: they integrate
against the alternative's Gibbs density (:func:`stationary_expectation_1d`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .bernstein import psi
from .catalog import gaussian_start, start_norm
from .guarantees import concentration_bound, confidence_radius, uq_bias_bound
from .hypocoercivity import HypoParams, bernstein_from_hypo
from .samplers import (
    Trajectory,
    replica_seed,
    simulate_bps,
    simulate_hhmc,
    simulate_langevin,  # unused here; kept so perfbench's tracer can wrap it at this name
    simulate_langevin_batch,
    simulate_zigzag,
    stream_rng,
    time_average,
)
from .targets import _QUAD_LIM, MomentumModel, Observable, TargetModel, stationary_expectation_1d

__all__ = [
    "ExperimentConfig",
    "ValidationReport",
    "run_replicas",
    "coverage_experiment",
    "tail_experiment",
    "mgf_experiment",
    "girsanov_entropy_rate_langevin",
    "jump_entropy_rate_zigzag",
    "uq_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to replay a validation experiment.

    Frozen, so that the checks on one config share its replica pass
    (``averages``) and its start norm (``dmu_norm``); ``dataclasses.replace``
    builds a new config, which simulates its own replicas.
    """

    sampler: str  # zigzag | bps | hhmc | langevin
    target: TargetModel
    observable: Observable
    hypo: HypoParams
    T: float
    delta: float
    replicas: int
    seed: int
    refresh_rate: float = 1.0
    mass: float = 1.0
    gamma: float = 1.0
    step: float = 0.01  # Langevin's, the one discretized sampler
    reflection_factor: float = 2.0
    # initial distribution: None = stationary start; otherwise a 1-D Gaussian
    # (mean, var) on the position with momentum drawn from rho*
    initial: Optional[tuple[float, float]] = None

    def momentum(self) -> MomentumModel:
        kind = "rademacher" if self.sampler == "zigzag" else "gaussian"
        return MomentumModel(kind=kind, mass=self.mass, beta=self.target.beta)

    @functools.cached_property
    def dmu_norm(self) -> float:
        """The start's ||dmu/dmu*||, computed on first use and shared."""
        return start_norm(self.target, self.initial)

    @functools.cached_property
    def averaged_functions(self) -> tuple:
        """The functions averaged along every replica, in one ``time_average``
        call: the observable, then dV/dq_0 and q_0 dV/dq_0 for the
        stationarity gate."""
        return (self.observable, lambda q: self.target.gradient(q)[..., 0],
                lambda q: np.asarray(q)[..., 0] * self.target.gradient(q)[..., 0])

    @functools.cached_property
    def averages(self) -> dict:
        """The replicas' time averages from one ``run_replicas`` pass, made
        on first use and shared, read-only, by every check on this config."""
        reps = run_replicas(self)
        for arr in reps.values():
            arr.flags.writeable = False
        return reps


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    passed: bool
    vacuous: bool
    seed: int
    details: dict

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# replica engine


# Langevin replicas stepped together; the paths held at once take
# O(_LANGEVIN_CHUNK * steps * d) memory
_LANGEVIN_CHUNK = 64


def _start(config: ExperimentConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A replica's start, drawn from its ``init`` stream: the position from
    nu* (stationary start) or from the 1-D Gaussian ``initial``, then the
    momentum from rho*."""
    rng = stream_rng(seed, "init")
    if config.initial is None:
        q0 = config.target.sample_position(rng)
    else:
        mu0, s2 = gaussian_start(config.target, config.initial)
        q0 = np.array([mu0 + math.sqrt(s2) * rng.standard_normal()])
    return q0, config.momentum().sample(rng, config.target.dim)


def _simulate(config: ExperimentConfig, seeds: list[int]) -> list[Trajectory]:
    """The trajectories of the replicas with these root seeds, each from its
    own start: the one place a sampler name maps to its simulation.
    Langevin replicas are stepped together."""
    c = config
    starts = [_start(c, seed) for seed in seeds]
    if c.sampler == "langevin":
        q0, p0 = zip(*starts)
        return simulate_langevin_batch(c.target, c.momentum(), c.gamma, c.T, c.step, seeds,
                                       np.array(q0), np.array(p0))
    if c.sampler == "zigzag":
        return [simulate_zigzag(c.target, c.T, seed, refresh_rate=c.refresh_rate, q0=q0, v0=p0)
                for seed, (q0, p0) in zip(seeds, starts)]
    if c.sampler == "bps":
        return [simulate_bps(c.target, c.momentum(), c.refresh_rate, c.T, seed, q0=q0, p0=p0,
                             reflection_factor=c.reflection_factor)
                for seed, (q0, p0) in zip(seeds, starts)]
    if c.sampler == "hhmc":
        return [simulate_hhmc(c.target, c.momentum(), c.refresh_rate, c.T, seed, q0=q0, p0=p0)
                for seed, (q0, p0) in zip(seeds, starts)]
    raise ValueError(f"unknown sampler '{c.sampler}'")


def run_replicas(config: ExperimentConfig) -> dict:
    """Simulate all replicas; returns per-replica ergodic averages of the
    observable and of dV/dq_0, q_0 dV/dq_0 (the stationarity gate's ``dV``,
    ``q_dV``), one ``time_average`` call per replica over ``config.averaged_functions``.

    Every call simulates afresh; the experiments read one call's result
    through ``config.averages``.  Langevin replicas are stepped together, up
    to _LANGEVIN_CHUNK at a time; the other samplers run one replica at a
    time."""
    fs = config.averaged_functions
    seeds = [replica_seed(config.seed, i) for i in range(config.replicas)]
    size = _LANGEVIN_CHUNK if config.sampler == "langevin" else 1
    rows = []
    for lo in range(0, len(seeds), size):
        rows += [time_average(traj, fs) for traj in _simulate(config, seeds[lo:lo + size])]
    F, A1, A2 = np.array(rows, dtype=float).reshape(-1, len(fs)).T.copy()
    return {"F": F, "dV": A1, "q_dV": A2}


def _stationarity_gate(config: ExperimentConfig, reps: dict) -> dict:
    """Compare pooled time averages of dV/dq_0 and q_0 dV/dq_0 with the Stein
    identities E[dV/dq_0] = 0, E[q_0 dV/dq_0] = 1/beta (Gorham & Mackey, 2015).

    3-sigma Monte-Carlo gate; a failure indicates the simulated dynamics do
    not preserve the target and poisons the whole report.  The identities
    hold under nu* only, so a non-stationary start leaves the gate off.
    """
    if config.initial is not None:
        return {"checked": False, "passed": True}
    M = config.replicas
    checks = {}
    ok = True
    for name, data, expected in (("mean_dV", reps["dV"], 0.0),
                                 ("mean_q_dV", reps["q_dV"], 1.0 / config.target.beta)):
        se = float(np.std(data, ddof=1)) / math.sqrt(M)
        dev = abs(float(np.mean(data)) - expected)
        passed = dev <= 3.0 * se + 1e-12
        ok &= passed
        checks[name] = {"observed": float(np.mean(data)), "expected": expected,
                        "std_error": se, "passed": passed}
    return {"checked": True, "passed": ok, "checks": checks}


# ---------------------------------------------------------------------------
# experiments


def _bounds(config: ExperimentConfig):
    """(stats, dmu_norm, pair, N, der): the observable's statistics, the
    start's ||dmu/dmu*|| and the Bernstein constants they give.  A check's
    standard errors need two replicas at least, so fewer are rejected before
    any is simulated."""
    if config.replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {config.replicas}")
    stats, dmu_norm = config.observable.stats, config.dmu_norm
    return (stats, dmu_norm, *bernstein_from_hypo(config.hypo, stats, dmu_norm))


def _report(kind: str, config: ExperimentConfig, reps: dict, ok: bool, vacuous: bool,
            **details) -> ValidationReport:
    """A check's report, with the stationarity gate of its replicas: it
    passes when the check is ``ok``, not vacuous and the gate passes."""
    gate = _stationarity_gate(config, reps)
    # plain bools: a comparison with a NumPy scalar gives a NumPy bool, which json rejects
    return ValidationReport(kind=kind, passed=bool(ok and not vacuous and gate["passed"]),
                            vacuous=bool(vacuous), seed=config.seed,
                            details={**details, "stationarity": gate})


def coverage_experiment(config: ExperimentConfig) -> ValidationReport:
    """Empirical coverage of the two-sided confidence interval.

    Counts hits of F_T - mu*[f] in (-r_minus, r_plus) over the replicas and
    requires empirical coverage >= 1 - delta - 3 sqrt(delta(1-delta)/M).
    The replicas are the config's shared pass, ``config.averages``.
    """
    stats, _, pair, N, der = _bounds(config)
    r_minus, r_plus = confidence_radius(pair, pair, N, config.delta, config.T)
    reps = config.averages
    dev = reps["F"] - stats.mean
    coverage = float(np.mean((dev > -r_minus) & (dev < r_plus)))
    M = config.replicas
    required = 1.0 - config.delta - 3.0 * math.sqrt(config.delta * (1.0 - config.delta) / M)
    return _report("coverage", config, reps, coverage >= required, stats.vacuous(r_minus, r_plus),
                   coverage=coverage, required=required, delta=config.delta, replicas=M,
                   r_minus=r_minus, r_plus=r_plus, N=N, v=pair.v, b=pair.b,
                   Lambda=der.Lambda, T=config.T, sup_norm=stats.sup_norm,
                   F_T=[float(x) for x in reps["F"]])


def tail_experiment(config: ExperimentConfig, r_grid=None) -> ValidationReport:
    """Tail domination: empirical P(+-(F_T - mu*[f]) >= r) must stay below
    the theoretical bound plus 3 binomial standard errors at every r, over
    the config's shared replica pass, ``config.averages``.  A row whose
    bound is 1 or more, or whose r is at or above the sup norm, no sampler
    can fail: the report is vacuous when every row is."""
    stats, dmu_norm, pair, N, der = _bounds(config)
    if r_grid is None:
        r_minus, r_plus = confidence_radius(pair, pair, N, config.delta, config.T)
        r_grid = np.linspace(0.0, max(r_plus, r_minus), 10)
    for r in r_grid:
        if not 0.0 <= r < math.inf:
            raise ValueError(f"grid point r={r} must be finite and >= 0")
    reps = config.averages
    dev = reps["F"] - stats.mean
    M = config.replicas
    rows = []
    for r in r_grid:
        bound = concentration_bound(pair, der.c, dmu_norm, float(r), config.T)
        for sign, data in (("+", dev), ("-", -dev)):
            emp = float(np.mean(data >= r))
            se = math.sqrt(emp * (1.0 - emp) / M)
            rows.append({"r": float(r), "sign": sign, "empirical": emp,
                         "bound": bound, "std_error": se, "passed": emp <= bound + 3.0 * se})
    violations = sum(not row["passed"] for row in rows)
    vacuous = all(row["bound"] >= 1.0 or stats.vacuous(row["r"]) for row in rows)
    return _report("tail", config, reps, violations == 0, vacuous, grid=rows,
                   violations=violations, replicas=M, v=pair.v, b=pair.b)


def mgf_experiment(config: ExperimentConfig, lambda_grid=None) -> ValidationReport:
    """Exponential-moment bound: the empirical scaled cumulant

        (1/T) log E[exp(lam T (F_T - mu*[f]))]

    must stay below psi(lam) + (1/T) log(||dmu/dmu*|| / c) + MC slack for
    every lam in the grid (all grid points must satisfy 0 <= lam < 1/b), over
    the config's shared replica pass, ``config.averages``."""
    stats, dmu_norm, pair, _, der = _bounds(config)
    if lambda_grid is None:
        hi = 0.5 / pair.b if pair.b > 0 else 1.0
        lambda_grid = np.linspace(0.0, hi, 5)
    for lam in lambda_grid:
        if not math.isfinite(lam):
            raise ValueError(f"grid point lambda={lam} is not finite")
        if lam < 0.0:
            raise ValueError(f"grid point lambda={lam} is negative")
        if pair.b > 0 and lam * pair.b >= 1.0:
            raise ValueError(f"grid point lambda={lam} violates lambda*b < 1")
    reps = config.averages
    dev = reps["F"] - stats.mean
    T, M = config.T, config.replicas
    prefactor = math.log(dmu_norm / der.c) / T
    rows = []
    for lam in lambda_grid:
        y = np.exp(lam * T * dev)
        mean_y = float(np.mean(y))
        se_log = float(np.std(y, ddof=1)) / math.sqrt(M) / mean_y
        empirical = math.log(mean_y) / T
        bound = psi(pair, float(lam)) + prefactor
        rows.append({"lambda": float(lam), "empirical": empirical, "bound": bound,
                     "std_error_log": se_log, "passed": empirical <= bound + 3.0 * se_log / T})
    violations = sum(not row["passed"] for row in rows)
    return _report("mgf", config, reps, violations == 0, False, grid=rows,
                   violations=violations, replicas=M, v=pair.v, b=pair.b)


# ---------------------------------------------------------------------------
# relative entropy rates


def _check_rate_pair(base: TargetModel, alt: TargetModel) -> None:
    """The arguments an entropy rate takes: 1-D targets at one beta."""
    if base.dim != 1 or alt.dim != 1:
        raise ValueError("entropy rates are implemented in 1-D only")
    if base.beta != alt.beta:
        raise ValueError("baseline and alternative must share beta")


def girsanov_entropy_rate_langevin(base: TargetModel, alt: TargetModel, gamma: float) -> float:
    """Relative entropy rate between the Langevin path measures driven by
    the alternative and baseline potentials, the alternative started in its
    own steady state:

        eta_inf = (beta / (4 gamma)) E_{nu_alt}[ |grad V_alt - grad V|^2 ].

    This is the drift-perturbation (Girsanov) rate for momentum diffusion
    coefficient 2 gamma / beta; the expectation is computed by adaptive
    quadrature against the alternative stationary density (1-D).
    """
    _check_rate_pair(base, alt)
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")

    val = stationary_expectation_1d(alt)(
        lambda q: np.square(alt.gradient(q)[:, 0] - base.gradient(q)[:, 0]))
    return base.beta / (4.0 * gamma) * val


def _sign_changes(gradient, x: np.ndarray) -> np.ndarray:
    """Where the 1-D ``gradient`` changes sign between neighbouring points of
    the grid ``x``: per change, the end of its bracket after 64 bisections
    (within 2^-64 of a grid step of the change, on the far side).  A pair of
    changes inside one grid step, where the sign comes back, is not seen."""
    positive = lambda q: gradient(q[:, None])[:, 0] > 0.0
    side = positive(x)
    k = np.flatnonzero(side[:-1] != side[1:])
    lo, hi, side = x[k], x[k + 1], side[k]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        same = positive(mid) == side
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return hi


def jump_entropy_rate_zigzag(base: TargetModel, alt: TargetModel) -> float:
    """Relative entropy rate between 1-D zig-zag path measures with flip
    rates r = beta [v V']^+ (baseline) and r_alt (alternative), alternative
    started in its own steady state:

        eta_inf = E_{nu_alt x unif(+-1)}[ r_alt log(r_alt / r) - r_alt + r ].

    Returns inf when absolute continuity fails, i.e. the alternative jumps
    (r_alt > 0) on a set of positive measure where the baseline cannot
    (r = 0).
    """
    _check_rate_pair(base, alt)
    beta = base.beta
    expect = stationary_expectation_1d(alt)  # rejects an alternative wider than its range

    # absolute-continuity scan: the nu_alt mass where r = 0 < r_alt, for each
    # velocity.  That set changes only where a gradient changes sign, so the
    # grid is refined by the sign changes of V' and V_alt' between its points
    # (a set narrower than the grid step lies between two of them), and each
    # refined cell is tested at its midpoint, weighted by its width times
    # exp(-beta (V_alt - min V_alt)) there
    grid = np.linspace(-_QUAD_LIM, _QUAD_LIM, 40001)
    edges = np.unique(np.concatenate([grid, _sign_changes(base.gradient, grid),
                                      _sign_changes(alt.gradient, grid)]))
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    gb, ga = base.gradient(mid).ravel(), alt.gradient(mid).ravel()
    bad = [(beta * np.maximum(0.0, v * gb) <= 1e-14) & (beta * np.maximum(0.0, v * ga) > 1e-10)
           for v in (-1.0, 1.0)]
    if any(np.any(b) for b in bad):
        V = alt.potential(mid)
        w = np.diff(edges) * np.exp(-beta * (V - np.min(V)))
        if max(np.sum(w[b]) for b in bad) / np.sum(w) > 1e-12:
            return math.inf

    total = 0.0
    for v in (-1.0, 1.0):
        def integrand(q: np.ndarray) -> np.ndarray:
            r = beta * np.maximum(0.0, v * base.gradient(q)[:, 0])
            rt = beta * np.maximum(0.0, v * alt.gradient(q)[:, 0])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                kl = rt * np.log(rt / r) - rt + r
            # r = 0 < rt is a measure-zero boundary point: the AC scan above
            # already ruled out positive-measure support violations
            return np.where(rt <= 1e-300, r, np.where(r <= 1e-300, 0.0, kl))

        total += 0.5 * expect(integrand, points=[0.0])
    return total


# ---------------------------------------------------------------------------
# UQ experiment


def uq_experiment(config: ExperimentConfig, alt_target: TargetModel) -> ValidationReport:
    """Steady-state bias bound check against an exactly computable bias.

    The baseline starts at mu* (so the chi-square prefactor is 1); the
    alternative is a 1-D target with computable stationary expectation.  The
    exact bias |E_alt[f] - E_base[f]| must be dominated by
    sqrt(2 v eta_inf) + b eta_inf, with eta_inf from the applicable entropy
    rate (Girsanov for Langevin constants, jump rate for zig-zag).
    """
    stats = config.observable.stats
    pair, _, _ = bernstein_from_hypo(config.hypo, stats, dmu_norm=1.0)
    if config.sampler == "zigzag":
        entropy_rate = jump_entropy_rate_zigzag(config.target, alt_target)
    elif config.sampler == "langevin":
        entropy_rate = girsanov_entropy_rate_langevin(config.target, alt_target, config.gamma)
    else:
        raise ValueError(f"no entropy-rate formula for sampler '{config.sampler}'")
    alt_mean = stationary_expectation_1d(alt_target)(config.observable)
    bias = abs(alt_mean - stats.mean)
    if math.isinf(entropy_rate):
        return ValidationReport(
            kind="uq", passed=False, vacuous=True, seed=config.seed,
            details={"entropy_rate": "inf", "bias": bias,
                     "note": "path measures not absolutely continuous; bound vacuous"},
        )
    bound = uq_bias_bound(pair, pair, entropy_rate)[1]
    vacuous = stats.vacuous(bound)
    passed = bool(bias <= bound + 1e-12) and not vacuous
    return ValidationReport(
        kind="uq", passed=passed, vacuous=vacuous, seed=config.seed,
        details={"bias": bias, "bound": bound, "entropy_rate": entropy_rate,
                 "alt_mean": alt_mean, "base_mean": stats.mean,
                 "v": pair.v, "b": pair.b, "sup_norm": stats.sup_norm},
    )
