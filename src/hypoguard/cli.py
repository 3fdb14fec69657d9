"""Command-line surface.

Subcommands:

    constants                 derived constants + Bernstein pair + prefactor N
    ci                        confidence radii for (T, delta)
    sample                    run one trajectory, print summary (or CSV export)
    validate {coverage|tail|mgf|uq|all}
                              run a certification experiment, or coverage, tail
                              and mgf on one replica pass; exit 0 iff all pass
    lab {perturb|eigen}       randomized operator checks

Configuration comes from a JSON file (--config); command-line flags override
file values (flag > file > default).  The root seed comes from --seed,
falling back to the HYPOGUARD_SEED environment variable, then to 0.  All
reports are JSON with a schema_version field and echo the resolved
configuration, so identical (config, seed) runs produce byte-identical
output.

Each command imports only the modules it runs.  ``ci`` and ``constants``
compute closed forms on Python floats: on a ``gaussian_iso`` target they
load no NumPy, from either ``initial`` start (the other targets build NumPy
models); they alone read ``dmu_norm`` and ``observable_stats``.  ``lab``
loads NumPy and the operator lab, and ``sample`` and ``validate`` load the
samplers.  No command loads scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

from . import __version__
from .catalog import builtin_stats, gaussian_iso, start_norm
from .guarantees import confidence_radius
from .hypocoercivity import (
    AdmissibilityError,
    HypoParams,
    ObservableStats,
    bernstein_from_hypo,
    lambda_q_from_target,
    optimal_eps,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# JSON true and "1.0" are not numbers, though float() reads both
def _number(raw) -> float:
    value = float(raw)
    if isinstance(raw, (bool, str)) or not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _integer(raw) -> int:
    value = int(raw)
    if isinstance(raw, (bool, str)) or value != float(raw):  # int() would truncate 2.5 to 2
        raise ValueError(f"{raw!r} is not an integer")
    return value


def _parsed(text: str, parse):
    """``parse(text)`` for a flag or variable, or ``text`` for _field to reject."""
    try:
        return parse(text)
    except ValueError:
        return text


def _grid(raw) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"{raw!r} is not a list")
    return [_number(x) for x in raw]


_KINDS = {_number: "a finite number", _integer: "an integer", _grid: "a list of finite numbers"}
_RULES = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0, ">= 1": lambda x: x >= 1,
          ">= 2": lambda x: x >= 2, "in (0, 1)": lambda x: 0 < x < 1,
          "in (0, 1]": lambda x: 0 < x <= 1}
_REQUIRED = object()


def _one_of(*names: str) -> tuple:
    return "one of " + " | ".join(names), names.__contains__


def _field(cfg: dict, path: str, rule=None, default=_REQUIRED, cast=_number):
    """The value at the dotted ``path`` of ``cfg``, passed through ``cast``.

    Every value on the way must be a JSON object.  A missing field is an
    error unless a ``default`` is given, which is returned as is.  ``rule``
    is a key of _RULES or a (description, predicate) pair that the value,
    or every element of a grid, must meet.  Any breach is a ConfigError
    naming ``path``.
    """
    keys = path.split(".")
    node = cfg
    for depth, key in enumerate(keys):
        if not isinstance(node, dict):
            raise ConfigError(f"config field '{'.'.join(keys[:depth])}' must be a JSON object")
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config field '{path}'")
            return default
        node = node[key]
    try:
        value = cast(node)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field '{path}' must be {_KINDS[cast]}, got {node!r}") from None
    text, meets = (rule, _RULES[rule]) if isinstance(rule, str) else rule or ("", None)
    if meets is not None and not all(map(meets, value if cast is _grid else [value])):
        raise ConfigError(f"config field '{path}' must be {text}, got {node!r}")
    return value


def _checked(block: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a library constructor fed from config
    block ``block``: the errors it raises for bad parameters become a
    ConfigError naming the block."""
    try:
        return build(*args, **kwargs)
    except AdmissibilityError:
        raise
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {block}: {exc}") from exc


def _finite(fields: str, **values) -> None:
    """Reject a value derived from the config ``fields`` that overflowed to
    inf: the strict JSON of a report cannot hold it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} = {value} is not finite for config fields {fields}")


def _bound_fields(cfg: dict, *more: str) -> str:
    """The config fields the Bernstein constants come from, and ``more``."""
    names = ["hypo", "observable_stats" if "observable_stats" in cfg else "observable",
             "dmu_norm" if "dmu_norm" in cfg else "initial", *more]
    return f"{', '.join(names[:-1])} and {names[-1]}"


def _constants(cfg: dict, hypo, stats, dmu_norm: float) -> tuple:
    """(pair, N, derived constants) of ``bernstein_from_hypo``, all finite."""
    fields = _bound_fields(cfg)
    pair, N, der = _checked(fields, bernstein_from_hypo, hypo, stats, dmu_norm)
    _finite(fields, v=pair.v, b=pair.b, N=N, **der._asdict())
    return pair, N, der


def _radius(cfg: dict, pair, N: float, delta: float, T: float) -> tuple:
    """(r_minus, r_plus) of ``confidence_radius``, both finite."""
    fields = _bound_fields(cfg, "T", "delta")
    radii = _checked(fields, confidence_radius, pair, pair, N, delta, T)
    _finite(fields, r_minus=radii[0], r_plus=radii[1])
    return radii


def _reject_nonfinite(node, path: str) -> None:
    """The strict-JSON echo of the config cannot hold NaN, Infinity or a
    number that overflows to inf (1e999), read or not: reject them."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"config field '{path}' must be a finite number, got {node!r}")
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            _reject_nonfinite(child, f"{path}.{key}" if path else key)


# the knobs each sampler reads, and their rules (ExperimentConfig holds the
# defaults); hhmc runs only its exact flow, so it has no step
_SAMPLERS = {"zigzag": {"refresh_rate": ">= 0"},
             "bps": {"refresh_rate": ">= 0", "mass": "> 0", "reflection_factor": None},
             "hhmc": {"refresh_rate": "> 0", "mass": "> 0"},  # > 0: it resamples at this rate
             "langevin": {"mass": "> 0", "gamma": "> 0", "step": "> 0"}}
# perturbation kind -> (its builder in targets, the key it reads)
_PERTURBATIONS = {"linear_tilt": ("linear_tilt", "delta"), "scale": ("scale_potential", "factor")}

# the keys some command reads, per config block ("" is the top level); the
# target and observable blocks are checked against the parameter tables of catalog
_KNOWN_KEYS = {
    "": {"hypo", "target", "observable", "observable_stats", "sampler", "initial",
         "perturbation", "T", "delta", "replicas", "seed", "dmu_norm", "r_grid", "lambda_grid",
         "dim", "trials", "lambda_grid_size"},
    "hypo": {"lambda_p", "lambda_q", "lambda_q_from", "R0", "eps"},
    "hypo.lambda_q_from": {"C_nu", "kappa_p"},
    "sampler": {"name"}.union(*_SAMPLERS.values()),
    "initial": {"kind", "mean", "var"},
    "perturbation": {"kind"} | {key for _, key in _PERTURBATIONS.values()},
    "observable_stats": {"mean", "variance", "sup_norm"},
}


def _reject_unread(cfg: dict, known: dict, reader: str) -> None:
    """Reject a key outside ``known[block]``, the keys ``reader`` reads in block
    ``block``: it is most likely misspelt, or it would change nothing."""
    for block, read in known.items():
        node = cfg
        for key in filter(None, block.split(".")):
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict) and not read.issuperset(node):
            path = ".".join(filter(None, (block, min(set(node) - read))))
            raise ConfigError(f"config field '{path}' is not read by {reader} "
                              f"(read: {', '.join(sorted(read))})")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_nonfinite(cfg, "")
    _reject_unread(cfg, _KNOWN_KEYS, "any command")
    return cfg


def _resolve_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return _field({"--seed": args.seed}, "--seed", ">= 0", cast=_integer)
    env = {k: _parsed(v, int) for k, v in os.environ.items() if k == "HYPOGUARD_SEED"}
    source, path = (cfg, "seed") if "seed" in cfg else (env, "HYPOGUARD_SEED")
    return _field(source, path, ">= 0", 0, _integer)


def _hypo_from_config(cfg: dict, eps_flag: str | None = None) -> HypoParams:
    lambda_p, R0 = _field(cfg, "hypo.lambda_p", "> 0"), _field(cfg, "hypo.R0", ">= 0")
    if "lambda_q_from" not in cfg["hypo"]:
        lambda_q = _field(cfg, "hypo.lambda_q", "in (0, 1]")
    elif "lambda_q" in cfg["hypo"]:
        raise ConfigError("config field 'hypo.lambda_q_from' conflicts with hypo.lambda_q")
    else:
        lambda_q = _checked("hypo.lambda_q_from", lambda_q_from_target,
                            _field(cfg, "hypo.lambda_q_from.C_nu"),
                            _field(cfg, "hypo.lambda_q_from.kappa_p"))
    source, path = ((cfg, "hypo.eps") if eps_flag is None
                    else ({"--eps": _parsed(eps_flag, float)}, "--eps"))
    if _field(source, path, cast=str) == "auto":
        eps = optimal_eps(lambda_q, lambda_p, R0)
    else:
        eps = _field(source, path)
    return _checked("hypo", HypoParams, lambda_p=lambda_p, lambda_q=lambda_q, R0=R0, eps=eps)


def _builtin(cfg: dict, block: str, build, *args):
    """``build(name, *args, **params)`` from the ``name`` of config block
    ``block`` and its other keys as parameters."""
    name = _field(cfg, f"{block}.name", cast=str)
    params = {key: value for key, value in cfg[block].items() if key != "name"}
    return _checked(block, build, name, *args, **params)


def _stats_target(cfg: dict):
    """The target of block ``target`` that the closed-form stats read: the
    NumPy-free law of ``gaussian_iso``, or the model of any other target."""
    if _field(cfg, "target.name", cast=str) == "gaussian_iso":
        return _builtin(cfg, "target", lambda _, **params: gaussian_iso(**params))
    from .targets import builtin_target

    return _builtin(cfg, "target", builtin_target)


def _initial(cfg: dict):
    """The start in ``initial``: None (stationary) or a 1-D Gaussian (mean, var)."""
    kind = _field(cfg, "initial.kind", _one_of("stationary", "gaussian"), "stationary", str)
    if kind == "stationary" and not cfg.get("initial", {}).keys().isdisjoint({"mean", "var"}):
        raise ConfigError("config field 'initial.kind' must be 'gaussian' where initial.mean "
                          "or initial.var is given: a stationary start reads neither")
    return None if kind == "stationary" else (_field(cfg, "initial.mean"),
                                              _field(cfg, "initial.var", "> 0"))


def _bernstein(cfg: dict, eps_flag: str | None = None) -> tuple:
    """(hypo, stats, dmu_norm, pair, N, derived constants) of the config."""
    hypo, initial = _hypo_from_config(cfg, eps_flag), _initial(cfg)
    if "observable_stats" in cfg:
        stats = _checked("observable_stats", ObservableStats,
                         mean=_field(cfg, "observable_stats.mean", default=0.0),
                         variance=_field(cfg, "observable_stats.variance"),
                         sup_norm=_field(cfg, "observable_stats.sup_norm"))
    else:
        stats = _builtin(cfg, "observable", builtin_stats, _stats_target(cfg))[1]
    if "initial" in cfg and "dmu_norm" in cfg:
        raise ConfigError("config field 'dmu_norm' conflicts with initial, which sets it")
    if initial is None:
        dmu_norm = _field(cfg, "dmu_norm", ">= 1", 1.0)
    else:
        dmu_norm = _checked("initial", start_norm, _stats_target(cfg), initial)
    return (hypo, stats, dmu_norm, *_constants(cfg, hypo, stats, dmu_norm))


def _experiment_config(cfg: dict, seed: int):
    """The validation.ExperimentConfig of the config."""
    from .targets import builtin_observable, builtin_target
    from .validation import ExperimentConfig

    target = _builtin(cfg, "target", builtin_target)
    name = _field(cfg, "sampler.name", _one_of(*_SAMPLERS), cast=str)
    knobs = {key: _field(cfg, f"sampler.{key}", rule)
             for key, rule in _SAMPLERS[name].items() if key in cfg["sampler"]}
    _reject_unread(cfg, {"sampler": {"name", *_SAMPLERS[name]}}, f"sampler '{name}'")
    for key in ("dmu_norm", "observable_stats"):  # the checks compute both from the config
        if key in cfg:
            raise ConfigError(f"config field '{key}' is read by ci and constants only")
    config = ExperimentConfig(
        sampler=name,
        target=target,
        observable=_builtin(cfg, "observable", builtin_observable, target),
        hypo=_hypo_from_config(cfg),
        T=_field(cfg, "T", "> 0"),
        delta=_field(cfg, "delta", "in (0, 1)", 0.1),
        replicas=_field(cfg, "replicas", ">= 2", 200, _integer),
        seed=seed,
        initial=_initial(cfg),
        **knobs,
    )
    # the bounds need a finite chi-square norm of the start: 1-D, var < 2 sigma^2,
    # and finite constants and radii, all checked before any replica is simulated
    _checked("initial", lambda: config.dmu_norm)
    pair, N, _ = _constants(cfg, config.hypo, config.observable.stats, config.dmu_norm)
    _radius(cfg, pair, N, config.delta, config.T)
    return config


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands: (args, cfg, seed) -> (report fields or None, exit code)


def cmd_constants(args, cfg: dict, seed: int) -> tuple:
    hypo, stats, dmu_norm, pair, N, der = _bernstein(cfg, eps_flag=args.eps)
    return {
        "eps": hypo.eps, "lambda_p": hypo.lambda_p, "lambda_q": hypo.lambda_q,
        "R0": hypo.R0, "Lambda": der.Lambda, "c": der.c, "C": der.C,
        "alpha": der.alpha, "v": pair.v, "b": pair.b, "N": N,
        "variance": stats.variance, "sup_norm": stats.sup_norm,
        "dmu_norm": dmu_norm,
    }, 0


def cmd_ci(args, cfg: dict, seed: int) -> tuple:
    _, stats, _, pair, N, _ = _bernstein(cfg)
    delta, T = _field(cfg, "delta", "in (0, 1)"), _field(cfg, "T", "> 0")
    r_minus, r_plus = _radius(cfg, pair, N, delta, T)
    report = {"T": T, "delta": delta, "N": N, "r_minus": r_minus, "r_plus": r_plus,
              "v_minus": pair.v, "b_minus": pair.b, "v_plus": pair.v, "b_plus": pair.b}
    return {"report": report, "vacuous": stats.vacuous(r_minus, r_plus)}, 0


# The simulating modules load inside the commands that run them.  These
# forwarders keep the names the commands call on this module, so a caller can
# wrap them here.


def time_average(traj, f):
    from .samplers import time_average

    return time_average(traj, f)


def export_csv(traj, path):
    from .samplers import export_csv

    return export_csv(traj, path)


def verify_lambda_eig(**kwargs):
    from .operator_lab import verify_lambda_eig

    return verify_lambda_eig(**kwargs)


def verify_perturb_lemma(**kwargs):
    from .operator_lab import verify_perturb_lemma

    return verify_perturb_lemma(**kwargs)


def cmd_sample(args, cfg: dict, seed: int) -> tuple:
    from .validation import _simulate

    config = _experiment_config(cfg, seed)
    if args.format == "csv" and not args.out:
        raise ConfigError("--format csv requires --out PATH")
    traj = _simulate(config, [seed])[0]
    if args.format == "csv":
        export_csv(traj, args.out)
        return None, 0
    events = Counter(traj.kinds)
    F_T, dV_avg, q_dV_avg = time_average(traj, config.averaged_functions)
    return {
        "sampler": traj.sampler,
        "horizon": traj.horizon,
        "discretized": traj.discretized,
        "segments": len(traj.flights[0]) if not traj.discretized else int(len(traj.times) - 1),
        "events": events,
        "F_T": F_T, "dV_avg": dV_avg, "q_dV_avg": q_dV_avg,
        "final_q": [float(x) for x in traj.final_q],
        "final_p": [float(x) for x in traj.final_p],
    }, 0


def cmd_validate(args, cfg: dict, seed: int) -> tuple:
    from . import targets
    from .validation import coverage_experiment, mgf_experiment, tail_experiment, uq_experiment

    config = _experiment_config(cfg, seed)
    if args.which == "uq":
        _field(cfg, "sampler.name", _one_of("zigzag", "langevin"), cast=str)  # has an entropy rate
        kind = _field(cfg, "perturbation.kind", _one_of(*_PERTURBATIONS), cast=str)
        build, key = _PERTURBATIONS[kind]
        alt = _checked("perturbation", getattr(targets, build), config.target,
                       _field(cfg, f"perturbation.{key}"))
        _reject_unread(cfg, {"perturbation": {"kind", key}}, f"perturbation '{kind}'")
        # no simulation: the entropy rate and both means are closed form or quadrature
        report = _checked("perturbation", uq_experiment, config, alt)
        return {"report": report.to_dict()}, 0 if report.passed else 1
    which = ("coverage", "tail", "mgf") if args.which == "all" else (args.which,)
    # every grid is read before the replicas are simulated
    checks = {}
    if "coverage" in which:
        checks["coverage"] = lambda: coverage_experiment(config)
    if "tail" in which:
        r_grid = _field(cfg, "r_grid", ">= 0", (), _grid)
        checks["tail"] = lambda: tail_experiment(config, r_grid if len(r_grid) else None)
    if "mgf" in which:
        b = bernstein_from_hypo(config.hypo, config.observable.stats, config.dmu_norm)[0].b
        lam_grid = _field(cfg, "lambda_grid", (f"in [0, 1/b) for b = {b!r}",
                                               lambda x: (x >= 0) & (x * b < 1)), (), _grid)
        checks["mgf"] = lambda: mgf_experiment(config, lam_grid if len(lam_grid) else None)
    # the checks share one replica pass, config.averages
    reports = {kind: check().to_dict() for kind, check in checks.items()}
    code = 0 if all(report["passed"] for report in reports.values()) else 1
    if args.which == "all":
        return {"reports": reports}, code
    return {"report": reports[args.which]}, code


def cmd_lab(args, cfg: dict, seed: int) -> tuple:
    if args.which == "perturb":
        report = verify_perturb_lemma(
            dim=_field(cfg, "dim", ">= 2", 5, _integer),
            trials=_field(cfg, "trials", ">= 1", 200, _integer),
            lambda_grid_size=_field(cfg, "lambda_grid_size", ">= 1", 50, _integer),
            seed=seed,
        )
    else:
        report = verify_lambda_eig(trials=_field(cfg, "trials", ">= 1", 10_000, _integer),
                                   seed=seed)
    return {"report": report.to_dict()}, 0 if report.passed else 1


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
    p.add_argument("which", choices=["coverage", "tail", "mgf", "uq", "all"])
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lab", help="randomized operator checks")
    p.add_argument("which", choices=["perturb", "eigen"])
    common(p)
    p.set_defaults(func=cmd_lab)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = os.path.dirname(args.out or "") or "."  # refused before any work is done
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(out_dir)
                         or not os.access(out_dir, os.W_OK)):
            raise ConfigError(f"--out {args.out} is not a file in a writable directory")
        cfg = _load_config(args.config)
        seed = _resolve_seed(args, cfg)
        fields, code = args.func(args, cfg, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return 2
    if fields is not None:
        _emit({"schema_version": SCHEMA_VERSION, "tool_version": __version__,
               "seed": seed, "config": cfg, **fields}, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
