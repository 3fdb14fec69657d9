"""Command-line surface.

Subcommands:

    constants                 derived constants + Bernstein pair + prefactor N
    ci                        confidence radii for (T, delta)
    sample                    run one trajectory, print summary (or CSV export)
    validate {coverage|tail|mgf|uq}
                              run a certification experiment; exit 0 iff pass
    lab {perturb|eigen}       randomized operator checks

Configuration comes from a JSON file (--config); command-line flags override
file values (flag > file > default).  The root seed comes from --seed,
falling back to the HYPOGUARD_SEED environment variable, then to 0.  All
reports are JSON with a schema_version field and echo the resolved
configuration, so identical (config, seed) runs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .guarantees import confidence_report
from .hypocoercivity import (
    AdmissibilityError,
    HypoParams,
    ObservableStats,
    bernstein_from_hypo,
    lambda_q_from_target,
    optimal_eps,
)
from .operator_lab import verify_lambda_eig, verify_perturb_lemma
from .samplers import export_csv, time_average
from .targets import builtin_observable, builtin_target, linear_tilt, scale_potential
from .validation import (
    ExperimentConfig,
    coverage_experiment,
    mgf_experiment,
    tail_experiment,
    uq_experiment,
    _simulate_one,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config field '{key}'")
    return cfg[key]


_RULES = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0,
          ">= 2": lambda x: x >= 2, "in (0, 1)": lambda x: 0 < x < 1}


def _in_range(name: str, raw, rule: str, cast=float):
    """``raw`` as a number, or a ConfigError naming field ``name`` when it
    breaks ``rule`` (a key of _RULES) and the library would reject it."""
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field '{name}' must be a number, got {raw!r}") from None
    if not _RULES[rule](value):
        raise ConfigError(f"config field '{name}' must be {rule}, got {raw!r}")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _resolve_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get("HYPOGUARD_SEED")
    return int(env) if env is not None else 0


def _hypo_from_config(cfg: dict, eps_flag: str | None = None) -> HypoParams:
    hypo = _require(cfg, "hypo")
    for key in ("lambda_p", "R0"):
        if key not in hypo:
            raise ConfigError(f"missing required config field 'hypo.{key}'")
    if "lambda_q" in hypo:
        lambda_q = float(hypo["lambda_q"])
    elif "lambda_q_from" in hypo:
        src = hypo["lambda_q_from"]
        lambda_q = lambda_q_from_target(float(src["C_nu"]), float(src["kappa_p"]))
    else:
        raise ConfigError("missing required config field 'hypo.lambda_q' (or 'hypo.lambda_q_from')")
    lambda_p, R0 = float(hypo["lambda_p"]), float(hypo["R0"])
    eps_raw = eps_flag if eps_flag is not None else hypo.get("eps")
    if eps_raw is None:
        raise ConfigError("missing required config field 'hypo.eps' (value or \"auto\")")
    if eps_raw == "auto":
        eps = optimal_eps(lambda_q, lambda_p, R0)
    else:
        eps = float(eps_raw)
    try:
        return HypoParams(lambda_p=lambda_p, lambda_q=lambda_q, R0=R0, eps=eps)
    except ValueError as exc:
        raise ConfigError(f"invalid hypo parameters: {exc}") from exc


def _target_from_config(cfg: dict):
    block = dict(_require(cfg, "target"))
    name = block.pop("name", None)
    if name is None:
        raise ConfigError("missing required config field 'target.name'")
    try:
        return builtin_target(name, **block)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid target: {exc}") from exc


def _observable_from_config(cfg: dict, target):
    block = dict(_require(cfg, "observable"))
    name = block.pop("name", None)
    if name is None:
        raise ConfigError("missing required config field 'observable.name'")
    try:
        return builtin_observable(name, target, **block)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid observable: {exc}") from exc


def _stats_from_config(cfg: dict) -> ObservableStats:
    if "observable_stats" in cfg:
        s = cfg["observable_stats"]
        for key in ("variance", "sup_norm"):
            if key not in s:
                raise ConfigError(f"missing required config field 'observable_stats.{key}'")
        return ObservableStats(mean=float(s.get("mean", 0.0)),
                               variance=float(s["variance"]),
                               sup_norm=float(s["sup_norm"]))
    target = _target_from_config(cfg)
    return _observable_from_config(cfg, target).stats


def _experiment_config(cfg: dict, seed: int) -> ExperimentConfig:
    target = _target_from_config(cfg)
    observable = _observable_from_config(cfg, target)
    hypo = _hypo_from_config(cfg)
    sampler = dict(cfg.get("sampler", {}))
    name = sampler.get("name")
    if name not in ("zigzag", "bps", "hhmc", "langevin"):
        raise ConfigError("config field 'sampler.name' must be one of "
                          "zigzag | bps | hhmc | langevin")
    initial = None
    if "initial" in cfg and cfg["initial"].get("kind", "stationary") != "stationary":
        initial = (float(cfg["initial"]["mean"]), float(cfg["initial"]["var"]))
    return ExperimentConfig(
        sampler=name,
        target=target,
        observable=observable,
        hypo=hypo,
        T=_in_range("T", _require(cfg, "T"), "> 0"),
        delta=_in_range("delta", cfg.get("delta", 0.1), "in (0, 1)"),
        replicas=_in_range("replicas", cfg.get("replicas", 200), ">= 2", cast=int),
        seed=seed,
        # hhmc resamples its momentum at refresh_rate, which must then be > 0
        refresh_rate=_in_range("sampler.refresh_rate", sampler.get("refresh_rate", 1.0),
                               "> 0" if name == "hhmc" else ">= 0"),
        mass=_in_range("sampler.mass", sampler.get("mass", 1.0), "> 0"),
        gamma=_in_range("sampler.gamma", sampler.get("gamma", 1.0), "> 0"),
        step=_in_range("sampler.step", sampler.get("step", 0.01), "> 0"),
        reflection_factor=float(sampler.get("reflection_factor", 2.0)),
        initial=initial,
    )


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_payload(cfg: dict, seed: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
            "seed": seed, "config": cfg}


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    hypo = _hypo_from_config(cfg, eps_flag=args.eps)
    stats = _stats_from_config(cfg)
    dmu_norm = float(cfg.get("dmu_norm", 1.0))
    pair, N, der = bernstein_from_hypo(hypo, stats, dmu_norm)
    payload = _base_payload(cfg, seed)
    payload.update({
        "eps": hypo.eps, "lambda_p": hypo.lambda_p, "lambda_q": hypo.lambda_q,
        "R0": hypo.R0, "Lambda": der.Lambda, "c": der.c, "C": der.C,
        "alpha": der.alpha, "v": pair.v, "b": pair.b, "N": N,
        "variance": stats.variance, "sup_norm": stats.sup_norm,
        "dmu_norm": dmu_norm,
    })
    _emit(payload, args)
    return 0


def cmd_ci(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    hypo = _hypo_from_config(cfg)
    stats = _stats_from_config(cfg)
    dmu_norm = float(cfg.get("dmu_norm", 1.0))
    pair, N, _ = bernstein_from_hypo(hypo, stats, dmu_norm)
    report = confidence_report(pair, pair, N,
                               _in_range("delta", _require(cfg, "delta"), "in (0, 1)"),
                               _in_range("T", _require(cfg, "T"), "> 0"))
    payload = _base_payload(cfg, seed)
    payload["report"] = report.to_dict()
    payload["vacuous"] = bool(min(report.r_minus, report.r_plus) >= 2.0 * stats.sup_norm)
    _emit(payload, args)
    return 0


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    config = _experiment_config(cfg, seed)
    traj = _simulate_one(config, seed)
    if args.format == "csv":
        if not args.out:
            raise ConfigError("--format csv requires --out PATH")
        export_csv(traj, args.out)
        return 0
    events = {}
    for ev in traj.events:
        events[ev.kind] = events.get(ev.kind, 0) + 1
    payload = _base_payload(cfg, seed)
    payload.update({
        "sampler": traj.sampler,
        "horizon": traj.horizon,
        "discretized": traj.discretized,
        "segments": len(traj.segments) if not traj.discretized else int(len(traj.times) - 1),
        "events": events,
        "F_T": time_average(traj, config.observable),
        "q_avg": time_average(traj, lambda q: np.asarray(q)[..., 0]),
        "q2_avg": time_average(traj, lambda q: np.asarray(q)[..., 0] ** 2),
        "final_q": [float(x) for x in traj.final_q],
        "final_p": [float(x) for x in traj.final_p],
    })
    _emit(payload, args)
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    config = _experiment_config(cfg, seed)
    if args.which == "coverage":
        report = coverage_experiment(config)
    elif args.which == "tail":
        r_grid = cfg.get("r_grid")
        report = tail_experiment(config, np.asarray(r_grid, dtype=float) if r_grid else None)
    elif args.which == "mgf":
        lam_grid = cfg.get("lambda_grid")
        report = mgf_experiment(config, np.asarray(lam_grid, dtype=float) if lam_grid else None)
    else:
        pert = _require(cfg, "perturbation")
        kind = pert.get("kind")
        if kind == "linear_tilt":
            alt = linear_tilt(config.target, float(pert["delta"]))
        elif kind == "scale":
            alt = scale_potential(config.target, float(pert["factor"]))
        else:
            raise ConfigError("perturbation.kind must be 'linear_tilt' or 'scale'")
        report = uq_experiment(config, alt)
    payload = _base_payload(cfg, seed)
    payload["report"] = report.to_dict()
    _emit(payload, args)
    return 0 if report.passed else 1


def cmd_lab(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    if args.which == "perturb":
        report = verify_perturb_lemma(
            dim=int(cfg.get("dim", 5)),
            trials=int(cfg.get("trials", 200)),
            lambda_grid_size=int(cfg.get("lambda_grid_size", 50)),
            seed=seed,
        )
    else:
        report = verify_lambda_eig(trials=int(cfg.get("trials", 10_000)), seed=seed)
    payload = _base_payload(cfg, seed)
    payload["report"] = report.to_dict()
    _emit(payload, args)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypoguard",
        description="Simulation and certification toolkit for hypocoercive "
                    "non-reversible MCMC samplers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides config and HYPOGUARD_SEED)")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("constants", help="derived hypocoercivity + Bernstein constants")
    common(p)
    p.add_argument("--eps", help="inner-product parameter, a number or 'auto'")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("ci", help="confidence radii")
    common(p)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("sample", help="simulate one trajectory")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("validate", help="certification experiments")
    p.add_argument("which", choices=["coverage", "tail", "mgf", "uq"])
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lab", help="randomized operator checks")
    p.add_argument("which", choices=["perturb", "eigen"])
    common(p)
    p.set_defaults(func=cmd_lab)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
