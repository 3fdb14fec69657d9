"""Span tracing from outside the package.

The tracer wraps public functions at the name their caller looks up (for
example ``hypoguard.validation.simulate_zigzag``, which ``run_replicas``
calls), records a span per call, and restores every original on
:meth:`Tracer.remove`.  Spans of hot leaf functions (event clocks, target
gradients) are aggregated rather than kept one by one, so a run does not
hold millions of records; their time still counts as child time of the span
that called them.

A layer's self time is its span's duration minus the time covered by the
wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

SAMPLERS = ("zigzag", "bps", "hhmc", "langevin")


class Tracer:
    def __init__(self):
        self.spans: list = []            # [name, start, end, parent index, group]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # names of the calls now on the stack
        self.pairs: set = set()           # (group, replica seed) simulated by run_replicas
        self.group: Optional[str] = None  # shared id of the current replica or CLI call
        self._stack: list = []           # frames [child time, nearest recorded span index]
        self._patches: list = []

    # -- calls ---------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, record, after):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        idx = parent
        if record:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.group])
        frame = [0.0, idx]
        stack.append(frame)
        self.active[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.active[name] -= 1
            dur = t1 - t0
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if record:
                self.spans[idx][1:3] = [t0, t1]
        if after is not None:
            after(args, kwargs, result)
        return result

    def wrap_fn(self, fn: Callable, name: str, record: bool = False,
                after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, record, after)

        return wrapper

    def count_fn(self, fn: Callable, name: str, only_in: tuple = ()) -> Callable:
        """A cheaper wrapper for hot leaf calls: it counts calls (only those
        made inside a span named in ``only_in``, if given) and takes no time."""
        counts, active = self.counts, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not only_in or any(active[n] for n in only_in):
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.counted = True
        return wrapper

    def patch(self, owner, attr: str, name: str, record: bool = True,
              after: Optional[Callable] = None, count_only: bool = False) -> None:
        orig = getattr(owner, attr)
        wrapper = self.count_fn(orig, name) if count_only else self.wrap_fn(orig, name, record, after)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def run_span(self, name: str, group: str, fn: Callable):
        """Call ``fn`` in a span of the benchmark's own, e.g. one operation."""
        saved = self.group
        self.group = group
        try:
            return self._call(name, fn, (), {}, True, None)
        finally:
            self.group = saved

    # -- queries -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                                 for k, v in sorted(self.stats.items())},
                       "counts": {str(k): v for k, v in sorted(self.counts.items(), key=str)}},
                      fh)


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics read, at the names
    their callers look up."""
    from hypoguard import cli, guarantees, hypocoercivity, samplers, targets, validation

    simulate_seed_index = {}
    for s in SAMPLERS:
        fn = getattr(samplers, f"simulate_{s}")
        simulate_seed_index[s] = list(inspect.signature(fn).parameters).index("seed")

    def after_simulate(sampler):
        index = simulate_seed_index[sampler]

        def after(args, kwargs, traj):
            c = tracer.counts
            c[("replicas", sampler)] += 1
            c[("events", sampler)] += len(traj.events)
            c[("clock_events", sampler)] += sum(e.kind in ("flip", "bounce") for e in traj.events)
            if traj.discretized:
                c[("steps", sampler)] += len(traj.times) - 1
            else:
                c[("segments", sampler)] += len(traj.segments)
            target = args[0] if args else kwargs["target"]
            if getattr(target.gradient, "counted", False):
                c[("counted_events", sampler)] += len(traj.events)
            if not target.is_quadratic:
                c[("thinning_replicas", sampler)] += 1
            if tracer.active["validation.run_replicas"]:
                seed = args[index] if len(args) > index else kwargs["seed"]
                c["validation.simulate_calls"] += 1
                tracer.pairs.add((tracer.group, seed))
        return after

    def after_run_replicas(args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        tracer.counts["validation.replicas"] += config.replicas

    for s in SAMPLERS:
        for owner in (samplers, validation):
            tracer.patch(owner, f"simulate_{s}", f"samplers.simulate_{s}",
                         after=after_simulate(s))
    for owner in (samplers, validation, cli):
        tracer.patch(owner, "time_average", "samplers.time_average")
    tracer.patch(cli, "export_csv", "samplers.export_csv")
    tracer.patch(samplers, "invert_affine_rate", "samplers.invert_affine_rate", count_only=True)
    tracer.patch(samplers, "sample_by_thinning", "samplers.sample_by_thinning", record=False)
    tracer.patch(validation, "run_replicas", "validation.run_replicas", after=after_run_replicas)
    for exp in ("coverage_experiment", "tail_experiment", "mgf_experiment"):
        tracer.patch(validation, exp, "validation.experiment")
    for fn in ("optimal_eps", "bernstein_from_hypo"):
        for owner in (hypocoercivity, cli, validation):
            if hasattr(owner, fn):
                tracer.patch(owner, fn, f"hypocoercivity.{fn}", record=False)
    for fn in ("confidence_radius", "min_time_for_radius", "concentration_bound"):
        for owner in (guarantees, validation):
            if hasattr(owner, fn):
                tracer.patch(owner, fn, f"guarantees.{fn}", record=False)
    for fn in ("estimate_poincare_1d", "observable_stats_quadrature"):
        tracer.patch(targets, fn, f"targets.{fn}")
    tracer.patch(cli, "verify_lambda_eig", "operator_lab.verify_lambda_eig")
    tracer.patch(cli, "verify_perturb_lemma", "operator_lab.verify_perturb_lemma")


def counting_wrapper(tracer: Tracer) -> Callable:
    """``wrap_fn`` for :func:`workloads.counting_target`: counts the target
    calls that zig-zag and BPS make."""
    clock_spans = ("samplers.simulate_zigzag", "samplers.simulate_bps")
    return lambda fn, name: tracer.count_fn(fn, name, only_in=clock_spans)


def _ratio(num: float, den: float, scale: float = 1.0):
    return num / den * scale if den else None


def _median(xs):
    xs = sorted(xs)
    if not xs:
        return None
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics read from one tracer.  A metric is None when the
    traced work held nothing to measure it on (say, no Langevin step)."""
    c = tr.counts
    m = {}
    for cmd in ("ci", "constants", "sample_csv", "lab_eigen", "lab_perturb"):
        m[f"cli.{cmd}_ms"] = _median([d * 1e3 for d in tr.durations(f"op:cli:{cmd}")])
    for name in ("hypocoercivity.optimal_eps", "hypocoercivity.bernstein_from_hypo",
                 "guarantees.confidence_radius", "guarantees.min_time_for_radius",
                 "guarantees.concentration_bound"):
        m[f"{name}_us"] = _ratio(tr.total(name), tr.calls(name), 1e6)
    for name in ("targets.estimate_poincare_1d", "targets.observable_stats_quadrature"):
        m[f"{name}_s"] = _ratio(tr.total(name), tr.calls(name))

    clock_samplers = ("zigzag", "bps")
    # Only replicas on the benchmark's own targets, whose calls are counted.
    clock_events = sum(c[("counted_events", s)] for s in clock_samplers)
    for name in ("targets.gradient", "targets.hessian_bound"):
        m[f"{name}_calls_per_event"] = _ratio(c[name], clock_events)
    sim_total = 0.0
    for s in SAMPLERS:
        t = tr.total(f"samplers.simulate_{s}")
        sim_total += t
        m[f"samplers.{s}_ms_per_replica"] = _ratio(t, c[("replicas", s)], 1e3)
        if s == "langevin":
            m["samplers.langevin_us_per_step"] = _ratio(t, c[("steps", s)], 1e6)
        else:
            m[f"samplers.{s}_us_per_event"] = _ratio(t, c[("events", s)], 1e6)
    event_samplers = ("zigzag", "bps", "hhmc")
    event_replicas = sum(c[("replicas", s)] for s in event_samplers)
    m["samplers.events_per_replica"] = _ratio(sum(c[("events", s)] for s in event_samplers),
                                              event_replicas)
    m["samplers.segments_per_replica"] = _ratio(sum(c[("segments", s)] for s in event_samplers),
                                                event_replicas)
    draws = c["samplers.invert_affine_rate"] + tr.calls("samplers.sample_by_thinning")
    m["samplers.clock_yield"] = _ratio(sum(c[("clock_events", s)] for s in clock_samplers), draws)
    m["samplers.sample_by_thinning_ms"] = _ratio(
        tr.total("samplers.sample_by_thinning"),
        sum(c[("thinning_replicas", s)] for s in clock_samplers), 1e3)
    avg = tr.total("samplers.time_average")
    m["samplers.time_average_ms"] = _ratio(avg, tr.calls("samplers.time_average"), 1e3)
    m["samplers.time_average_share"] = _ratio(avg, avg + sim_total) if avg else None
    m["samplers.export_csv_ms"] = _ratio(tr.total("samplers.export_csv"),
                                         tr.calls("samplers.export_csv"), 1e3)

    runs = tr.calls("validation.run_replicas")
    m["validation.run_replicas_calls"] = runs or None
    m["validation.replica_ms"] = _ratio(tr.total("validation.run_replicas"),
                                        c["validation.replicas"], 1e3)
    m["validation.run_replicas_self_ms"] = _ratio(tr.self_time("validation.run_replicas"), runs, 1e3)
    m["validation.check_ms"] = _ratio(
        tr.total("validation.experiment") - tr.total("validation.run_replicas"),
        tr.calls("validation.experiment"), 1e3)
    m["validation.trajectories_per_replica"] = _ratio(c["validation.simulate_calls"], len(tr.pairs))
    for name in ("operator_lab.verify_lambda_eig", "operator_lab.verify_perturb_lemma"):
        m[f"{name}_ms"] = _ratio(tr.total(name), tr.calls(name), 1e3)
    return m
