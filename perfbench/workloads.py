"""The four benchmark workloads: inputs generated from a seed, the operations
a run repeats, and the checks on each operation's output.

Every operation returns an :class:`Outcome` that lists its failures (empty
when the output checks out) and a digest of its output.  Digests let a later
commit show that it kept the ``stream_rng`` / ``replica_seed`` seed contract:
the same seed must give the same digest.

The package is only ever handed configs and inputs built here from the
workload seed.  Statistical checks (coverage, tail, MGF, the stationarity
gate) have a designed false-alarm rate, so a validation report that does
not pass is a *miss*: the run counts its misses as failures only when more
configs miss than a binomial budget at that rate allows (:func:`miss_budget`).

The package's modules are imported inside the functions that use them, so
that a fresh-interpreter set-up (``setup_child.py``) loads only what the
package itself and the workload's inputs need.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

WORKLOADS = ("certify-1d", "langevin-grid", "clocks-stress", "cli-closed-form")

# The reference config of ROADMAP and tests/conftest.py.
REF_T, REF_DELTA, REF_REPLICAS = 150.0, 0.1, 200
REF_CONFIG = {
    "hypo": {"lambda_p": 1.0, "lambda_q_from": {"C_nu": 1.0, "kappa_p": 1.0},
             "R0": 1.0, "eps": "auto"},
    "target": {"name": "gaussian_iso", "dim": 1, "h": 1.0, "beta": 1.0},
    "observable": {"name": "cos", "omega": 1.0},
    "sampler": {"name": "zigzag", "refresh_rate": 1.0},
    "T": REF_T, "delta": REF_DELTA, "replicas": REF_REPLICAS, "seed": 42,
}
# Langevin costs ~0.3 s per replica, so an experiment of this size takes a
# few seconds and a run still holds several experiments.
LANGEVIN_REPLICAS = 10
LANGEVIN_STEP = 0.01
# clocks-stress sizes: each of the four replica kinds costs 0.05-0.2 s on a
# 2-core x86 machine, so both halves take a sizable share of a run.
ANISO_DIM = 50
ANISO_T = {"zigzag": 10.0, "bps": 200.0}
WELL_T = {"zigzag": 1000.0, "bps": 400.0}
# The seed varies H, the starts and the streams, not beta, which sets the
# double well's event rates and so the cost of a replica.
WELL_BETA = 1.5
PLAN_CHUNK = 1000  # grid points per timed planning-sweep chunk
CHECKS = {"certify-1d": ("coverage", "tail", "mgf"), "langevin-grid": ("coverage",)}
CHECKED_SAMPLERS = {"certify-1d": ("zigzag", "hhmc"), "langevin-grid": ("langevin",)}
CONFIG_REPLICAS = {"certify-1d": REF_REPLICAS, "langevin-grid": LANGEVIN_REPLICAS}
# A run fails its misses only if so many configs miss that a correct sampler
# would do so with probability below MISS_ALPHA.
MISS_ALPHA = 1e-3


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    digest: str = ""
    seconds: Optional[float] = None  # set when the operation times itself
    misses: Optional[list] = None    # set by validation checks: reports that did not pass


@dataclass
class Op:
    kind: str                     # timing group
    label: str                    # unique within a run; keys digests
    replicas: int                 # replicas simulated, averaged and checked
    fn: Callable[[], Outcome]
    group: str = ""               # trace id shared by the operations on one config


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, default=float).encode())
    return h.hexdigest()[:16]


def config_seed(seed: int, *keys: int) -> int:
    """A seed for the package, drawn from the workload seed and ``keys``."""
    return int(np.random.default_rng([seed, *keys]).integers(2**31))


def validation_seed(inputs: dict, round_: int, sampler: str) -> int:
    name = inputs["name"]
    return config_seed(inputs["seed"], WORKLOADS.index(name), round_,
                       CHECKED_SAMPLERS[name].index(sampler))


# ---------------------------------------------------------------------------
# misses


def false_alarm_rate(replicas: int) -> float:
    """Designed chance that a correct sampler's config misses.

    The check a correct sampler trips by chance is the stationarity gate:
    two 3-sigma tests on means whose standard error is estimated from the
    replicas.  The other checks compare with conservative bounds.  So the
    rate is at most twice the two-sided Student-t tail beyond 3 with
    ``replicas - 1`` degrees of freedom.
    """
    nu = replicas - 1
    x = np.linspace(0.0, 3.0, 30001)
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)
    pdf = np.exp(log_c - (nu + 1) / 2 * np.log1p(x * x / nu))
    inside = float(np.sum(pdf[1:] + pdf[:-1]) * (x[1] - x[0]))  # 2 * integral over [0, 3]
    return min(1.0, 2.0 * (1.0 - inside))


def miss_budget(configs: int, rate: float, alpha: float = MISS_ALPHA) -> int:
    """Smallest k with P(Binomial(configs, rate) > k) <= alpha."""
    tail = 1.0
    for k in range(configs + 1):
        tail -= math.comb(configs, k) * rate**k * (1.0 - rate) ** (configs - k)
        if tail <= alpha:
            return k
    return configs


# ---------------------------------------------------------------------------
# inputs


def reference_setting():
    """Target, observable and HypoParams of the reference config."""
    from hypoguard import hypocoercivity, targets

    target = targets.builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
    obs = targets.builtin_observable("cos", target, omega=1.0)
    lam_q = hypocoercivity.lambda_q_from_target(C_nu=target.poincare_const, kappa_p=1.0)
    eps = hypocoercivity.optimal_eps(lam_q, 1.0, 1.0)
    hypo = hypocoercivity.HypoParams(lambda_p=1.0, lambda_q=lam_q, R0=1.0, eps=eps)
    return target, obs, hypo


def experiment_config(sampler: str, seed: int, replicas: int, target=None):
    from hypoguard import validation

    ref_target, obs, hypo = reference_setting()
    return validation.ExperimentConfig(
        sampler=sampler, target=target or ref_target, observable=obs, hypo=hypo,
        T=REF_T, delta=REF_DELTA, replicas=replicas, seed=seed,
        step=LANGEVIN_STEP)


def tridiagonal_hessian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Diagonally dominant, hence positive definite, tridiagonal H."""
    H = np.diag(rng.uniform(1.0, 2.0, d))
    off = rng.uniform(-0.45, 0.45, d - 1)
    H[np.arange(d - 1), np.arange(1, d)] = off
    H[np.arange(1, d), np.arange(d - 1)] = off
    return H


def _cos0(q):
    return np.cos(np.asarray(q)[..., 0])


def build_inputs(name: str, seed: int, wrap_target: Optional[Callable] = None) -> dict:
    """Everything a workload's operations need, made from ``seed``.

    ``wrap_target`` lets the traced run swap in targets whose gradient and
    Hessian bound are counted; the untraced run passes None.
    """
    from hypoguard import hypocoercivity, targets

    wrap = wrap_target or (lambda t: t)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    inputs = {"name": name, "seed": seed, "plan_rng_seed": [seed, 99]}
    if name in ("certify-1d", "langevin-grid", "cli-closed-form"):
        target, obs, hypo = reference_setting()
        inputs.update(target=wrap(target), obs=obs, hypo=hypo)
    if name == "clocks-stress":
        H = tridiagonal_hessian(rng, ANISO_DIM)
        aniso = targets.builtin_target("gaussian_aniso", H=H, beta=1.0)
        probe = targets.builtin_target("double_well", beta=WELL_BETA, poincare_const=1.0)
        C = targets.estimate_poincare_1d(probe)
        well = targets.builtin_target("double_well", beta=WELL_BETA, poincare_const=C)
        well_stats = targets.observable_stats_quadrature(_cos0, well)
        hypos = {}
        for key, tgt in (("aniso", aniso), ("well", well)):
            lam_q = hypocoercivity.lambda_q_from_target(C_nu=tgt.poincare_const, kappa_p=1.0)
            eps = hypocoercivity.optimal_eps(lam_q, 1.0, 1.0)
            hypos[key] = hypocoercivity.HypoParams(lambda_p=1.0, lambda_q=lam_q, R0=1.0, eps=eps)
        inputs.update(
            H=H, aniso=wrap(aniso), well=wrap(well), hypo=hypos["aniso"],
            aniso_obs=targets.builtin_observable("cos", aniso, omega=1.0),
            well_obs=targets.Observable(name="cos(q0)", f=_cos0, stats=well_stats),
            well_starts=rng.choice([-1.0, 1.0], 64) + 0.1 * rng.standard_normal(64),
            config_seed=int(rng.integers(2**31)),
        )
        inputs["obs"] = inputs["aniso_obs"]
    if name == "cli-closed-form":
        inputs["config_seed"] = int(rng.integers(2**31))
    return inputs


# ---------------------------------------------------------------------------
# operations: validation experiments


def check(config, experiment: str, label: str) -> Outcome:
    """One validation experiment ('coverage', 'tail' or 'mgf') on a config."""
    from hypoguard import validation

    report = getattr(validation, f"{experiment}_experiment")(config)
    F = report.details.get("F_T")
    failures = [] if F is None or np.all(np.isfinite(F)) else [f"{label}: non-finite F_T"]
    misses = [] if report.passed else [f"{label}: {report.kind} report did not pass"]
    return Outcome(failures, digest(report.to_dict()), misses=misses)


def validation_cycles(inputs: dict) -> Iterator[list]:
    """Per cycle, one config per sampler, and on it every check the workload
    runs: all three for certify-1d, as a user certifies a config."""
    name = inputs["name"]
    replicas = CONFIG_REPLICAS[name]
    for k in count():
        cycle = []
        for sampler in CHECKED_SAMPLERS[name]:
            cfg_seed = validation_seed(inputs, k, sampler)
            config = experiment_config(sampler, cfg_seed, replicas, inputs["target"])
            group = f"{sampler}/seed={cfg_seed}/round={k}"
            for experiment in CHECKS[name]:
                label = f"{group}/{experiment}"
                cycle.append(Op(sampler, label, replicas,
                                lambda c=config, e=experiment, lb=label: check(c, e, lb),
                                group=group))
        yield cycle


# ---------------------------------------------------------------------------
# operations: direct sampler calls (clocks-stress)


def replica_outcome(traj, obs, label: str) -> Outcome:
    """Average one trajectory and check what must hold for any sampler."""
    from hypoguard import samplers

    F = samplers.time_average(traj, obs)
    failures = []
    if not math.isfinite(F):
        failures.append(f"{label}: non-finite F_T")
    elif abs(F - obs.stats.mean) > obs.stats.sup_norm * (1 + 1e-9) + 1e-12:
        failures.append(f"{label}: F_T outside the observable's range")
    if not (np.all(np.isfinite(traj.final_q)) and np.all(np.isfinite(traj.final_p))):
        failures.append(f"{label}: non-finite final state")
    if not traj.discretized:
        covered = sum(seg.duration for seg in traj.segments)
        if abs(covered - traj.horizon) > 1e-9 * traj.horizon:
            failures.append(f"{label}: segments cover {covered}, not T = {traj.horizon}")
    if traj.sampler == "zigzag" and not np.all(np.abs(traj.final_p) == 1.0):
        failures.append(f"{label}: zig-zag velocity left {{-1, +1}}")
    return Outcome(failures, digest([F], traj.final_q, traj.final_p))


def simulate_replica(inputs: dict, kind: str, i: int):
    """kind is '<sampler>/<aniso|well>'; returns (trajectory, observable)."""
    from hypoguard import samplers, targets

    sampler, where = kind.split("/")
    seed = samplers.replica_seed(inputs["config_seed"], i)
    target = inputs[where]
    T = (ANISO_T if where == "aniso" else WELL_T)[sampler]
    q0 = None
    if where == "well":
        starts = inputs["well_starts"]
        q0 = np.array([starts[i % len(starts)]])
    if sampler == "zigzag":
        traj = samplers.simulate_zigzag(target, T, seed, 1.0, q0)
    else:
        momentum = targets.MomentumModel(kind="gaussian", beta=target.beta)
        traj = samplers.simulate_bps(target, momentum, 1.0, T, seed, q0)
    return traj, inputs[f"{where}_obs"]


def clocks_cycles(inputs: dict) -> Iterator[list]:
    kinds = ("zigzag/aniso", "bps/aniso", "zigzag/well", "bps/well")
    for i in count():
        cycle = []
        for kind in kinds:
            label = f"{kind}/replica={i}"

            def fn(kind=kind, i=i, label=label):
                traj, obs = simulate_replica(inputs, kind, i)
                return replica_outcome(traj, obs, label)

            cycle.append(Op(kind, label, 1, fn))
        yield cycle


# ---------------------------------------------------------------------------
# operations: planning sweep


def plan_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rows of (lambda_p, R0, C_nu, T, delta, r)."""
    lo = np.array([0.2, 0.0, 0.2, 10.0, 0.01, 0.05])
    hi = np.array([5.0, 3.0, 5.0, 1000.0, 0.3, 1.0])
    return lo + (hi - lo) * rng.random((n, 6))


def plan_chunk(rows: np.ndarray, stats, label: str) -> Outcome:
    """Plan each grid point as a user would: best eps, Bernstein constants,
    confidence radii, the horizon for radius r, and the tail bound at r."""
    from hypoguard import guarantees, hypocoercivity

    out = []
    for lambda_p, R0, C_nu, T, delta, r in rows.tolist():
        lam_q = hypocoercivity.lambda_q_from_target(C_nu, 1.0)
        eps = hypocoercivity.optimal_eps(lam_q, lambda_p, R0)
        hypo = hypocoercivity.HypoParams(lambda_p=lambda_p, lambda_q=lam_q, R0=R0, eps=eps)
        pair, N, der = hypocoercivity.bernstein_from_hypo(hypo, stats)
        r_minus, r_plus = guarantees.confidence_radius(pair, pair, N, delta, T)
        t_min = guarantees.min_time_for_radius(pair, N, delta, r)
        bound = guarantees.concentration_bound(pair, der.c, 1.0, r, T)
        out.append((eps, r_minus, r_plus, t_min, bound))
    arr = np.array(out)
    failures = []
    if not np.all(np.isfinite(arr)) or np.any(arr[:, :4] <= 0) or np.any(arr[:, 4] < 0):
        failures.append(f"{label}: non-finite or non-positive plan output")
    return Outcome(failures, digest(arr))


def plan_ops(inputs: dict) -> Iterator[Op]:
    rng = np.random.default_rng(inputs["plan_rng_seed"])
    for k in count():
        rows = plan_grid(rng, PLAN_CHUNK)
        label = f"plan/chunk={k}"
        yield Op("plan", label, 0, lambda rows=rows, lb=label: plan_chunk(rows, inputs["obs"].stats, lb))


# ---------------------------------------------------------------------------
# operations: CLI calls


class CliRunner:
    """Runs ``hypoguard`` subcommands, either as fresh ``python -m hypoguard``
    processes or in-process through ``hypoguard.cli.main(argv)``.

    A call fails if it exits non-zero or if its stdout (or CSV file) differs
    byte for byte from an earlier call with the same arguments in this run.
    """

    def __init__(self, workdir: Path, inprocess: bool):
        self.workdir = workdir
        self.inprocess = inprocess
        self.seen: dict = {}
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def config(self, name: str, cfg: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def run(self, args: list, label: str) -> Outcome:
        csv_path = args[args.index("--out") + 1] if "--out" in args else None
        if self.inprocess:
            from hypoguard import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = cli.main(args)
                except SystemExit as exc:  # argparse rejects the arguments
                    rc = exc.code
            stdout = buf.getvalue().encode()
        else:
            proc = subprocess.run([sys.executable, "-m", "hypoguard", *args],
                                  capture_output=True, env=self.env, cwd=ROOT)
            rc, stdout = proc.returncode, proc.stdout
        failures = []
        if rc != 0:
            failures.append(f"{label}: exit code {rc}")
        payload = stdout
        if csv_path is not None:
            payload = Path(csv_path).read_bytes()
            failures += _csv_failures(payload, label)
        key = tuple(args)
        if key in self.seen and self.seen[key] != payload:
            failures.append(f"{label}: output differs from an earlier identical call")
        self.seen.setdefault(key, payload)
        return Outcome(failures, digest(payload))


def _csv_failures(payload: bytes, label: str) -> list:
    rows = payload.decode().strip().splitlines()
    try:
        last = [float(x) for x in rows[-1].split(",")[:-1]]
    except (IndexError, ValueError):
        return [f"{label}: unreadable CSV export"]
    if len(rows) < 3 or not all(math.isfinite(x) for x in last):
        return [f"{label}: malformed CSV export"]
    return []


def cli_commands(inputs: dict, runner: CliRunner) -> list:
    """(kind, argv) of the fixed command mix on the reference config."""
    seed = str(inputs["config_seed"])
    ref = runner.config("reference", REF_CONFIG)
    csv_out = str(runner.workdir / "trajectory.csv")
    return [
        ("cli:ci", ["ci", "--config", ref]),
        ("cli:constants", ["constants", "--config", ref]),
        ("cli:lab_eigen", ["lab", "eigen", "--config", ref, "--seed", seed]),
        ("cli:lab_perturb", ["lab", "perturb", "--config", ref, "--seed", seed]),
        ("cli:sample_csv", ["sample", "--config", ref, "--seed", seed,
                            "--format", "csv", "--out", csv_out]),
    ]


def companion_commands(inputs: dict, runner: CliRunner) -> list:
    """The CLI calls a user of each non-CLI workload makes on its own setting."""
    name = inputs["name"]
    if name == "certify-1d":
        first = {s: validation_seed(inputs, 0, s) for s in CHECKED_SAMPLERS[name]}
        ref = runner.config("reference", REF_CONFIG)
        cmds = [("cli:ci", ["ci", "--config", ref])]
        for s in ("zigzag", "hhmc"):
            cfg = runner.config(s, {**REF_CONFIG, "sampler": {"name": s, "refresh_rate": 1.0}})
            cmds.append((f"cli:sample_{s}", ["sample", "--config", cfg, "--seed", str(first[s])]))
        return cmds
    if name == "langevin-grid":
        cfg = runner.config("langevin", {
            **REF_CONFIG, "replicas": LANGEVIN_REPLICAS,
            "sampler": {"name": "langevin", "gamma": 1.0, "step": LANGEVIN_STEP}})
        seed = str(validation_seed(inputs, 0, "langevin"))
        return [("cli:ci", ["ci", "--config", cfg]),
                ("cli:sample_langevin", ["sample", "--config", cfg, "--seed", seed])]
    if name == "clocks-stress":
        C_nu = inputs["aniso"].poincare_const
        base = {**REF_CONFIG,
                "hypo": {**REF_CONFIG["hypo"], "lambda_q_from": {"C_nu": C_nu, "kappa_p": 1.0}},
                "target": {"name": "gaussian_aniso", "H": inputs["H"].tolist(), "beta": 1.0}}
        seed = str(inputs["config_seed"])
        cmds = []
        for s in ("zigzag", "bps"):
            cfg = runner.config(f"aniso_{s}", {**base, "T": ANISO_T[s],
                                               "sampler": {"name": s, "refresh_rate": 1.0}})
            cmds.append((f"cli:sample_{s}", ["sample", "--config", cfg, "--seed", seed]))
        return cmds
    raise ValueError(name)


def cli_cycles(inputs: dict, runner: CliRunner) -> Iterator[list]:
    """The cli-closed-form loop: each command of the mix, each followed by a
    chunk of the planning sweep."""
    cmds = cli_commands(inputs, runner)
    plans = plan_ops(inputs)
    for k in count():
        cycle = []
        for kind, args in cmds:
            label = f"{kind}/call={k}"
            cycle.append(Op(kind, label, 1 if kind == "cli:sample_csv" else 0,
                            lambda a=args, lb=label: runner.run(a, lb)))
            cycle.append(next(plans))
        yield cycle


def workload_cycles(inputs: dict, runner: CliRunner) -> Iterator[list]:
    """The workload's operations in cycles of one operation of each kind."""
    name = inputs["name"]
    if name in ("certify-1d", "langevin-grid"):
        return validation_cycles(inputs)
    if name == "clocks-stress":
        return clocks_cycles(inputs)
    return cli_cycles(inputs, runner)


def counting_target(target, wrap_fn: Callable):
    """A copy of ``target`` whose gradient and Hessian bound are wrapped."""
    changes = {"gradient": wrap_fn(target.gradient, "targets.gradient")}
    if target.hessian_bound is not None:
        changes["hessian_bound"] = wrap_fn(target.hessian_bound, "targets.hessian_bound")
    return dataclasses.replace(target, **changes)


# ---------------------------------------------------------------------------
# traced-run probe


PROBE_REPLICAS = 20


def probe_ops(seed: int, wrap_target: Callable, runner: CliRunner) -> list:
    """A small fixed call of every layer.  The traced run takes a per-layer
    metric from here only when the workload itself did not exercise it."""
    from hypoguard import samplers, targets

    target, obs, _ = reference_setting()
    target = wrap_target(target)
    state = {}

    def build_well():
        probe = targets.builtin_target("double_well", beta=WELL_BETA, poincare_const=1.0)
        C = targets.estimate_poincare_1d(probe)
        well = targets.builtin_target("double_well", beta=WELL_BETA, poincare_const=C)
        stats = targets.observable_stats_quadrature(_cos0, well)
        state["well"] = wrap_target(well)
        state["well_obs"] = targets.Observable(name="cos(q0)", f=_cos0, stats=stats)
        return Outcome()

    def replica(sampler, where):
        tgt, o = (target, obs) if where == "ref" else (state["well"], state["well_obs"])
        label = f"probe/{sampler}/{where}"
        q0 = None if where == "ref" else np.array([1.0])
        momentum = targets.MomentumModel(kind="gaussian", beta=tgt.beta)
        s = samplers.replica_seed(seed, 0 if where == "ref" else 1)
        if sampler == "zigzag":
            traj = samplers.simulate_zigzag(tgt, REF_T, s, 1.0, q0)
        elif sampler == "bps":
            traj = samplers.simulate_bps(tgt, momentum, 1.0, REF_T, s, q0)
        elif sampler == "hhmc":
            traj = samplers.simulate_hhmc(tgt, momentum, 1.0, REF_T, s)
        else:
            traj = samplers.simulate_langevin(tgt, momentum, 1.0, REF_T, LANGEVIN_STEP, s)
        return replica_outcome(traj, o, label)

    def certify_small(experiment):
        # One small config: its misses are not judged, only hard failures count.
        config = experiment_config("zigzag", seed, PROBE_REPLICAS, target)
        outcome = check(config, experiment, f"probe/{experiment}")
        outcome.misses = None
        return outcome

    rows = plan_grid(np.random.default_rng([seed, 98]), 200)
    ops = [Op("probe:targets", "probe/targets", 0, build_well)]
    ops += [Op(f"probe:{s}", f"probe/{s}/ref", 1, lambda s=s: replica(s, "ref"))
            for s in ("zigzag", "bps", "hhmc", "langevin")]
    ops += [Op(f"probe:{s}", f"probe/{s}/well", 1, lambda s=s: replica(s, "well"))
            for s in ("zigzag", "bps")]
    ops += [Op("probe:validation", f"probe/{e}", PROBE_REPLICAS, lambda e=e: certify_small(e),
               group="probe/validation") for e in CHECKS["certify-1d"]]
    ops.append(Op("plan", "probe/plan", 0, lambda: plan_chunk(rows, obs.stats, "probe/plan")))
    ops += [Op(kind, f"probe/{kind}", 0, lambda a=args, k=kind: runner.run(a, f"probe/{k}"))
            for kind, args in cli_commands({"config_seed": seed}, runner)]
    return ops
