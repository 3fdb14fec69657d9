"""The package surface that the benchmark in ``perfbench/`` reads.

``perfbench/tracer.py`` wraps package functions at the names their callers
look up and reads each trajectory's events, segments and step grid;
``perfbench/workloads.py`` calls the samplers with positional arguments and
checks every trajectory with ``replica_outcome``.  A change that breaks one
of these reads fails here in about a second, not only in the benchmark's
own five-minute test run.
"""

import ast
import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from hypoguard import MomentumModel, builtin_observable, builtin_target
from hypoguard import cli, guarantees, hypocoercivity, samplers, targets, validation
from test_samplers import separable_well

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypoguard"
MODULES = (cli, guarantees, hypocoercivity, samplers, targets, validation)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_tracer_install_and_remove_restore_every_name():
    before = [dict(vars(m)) for m in MODULES]
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        changed = sum(vars(m)[k] is not v for m, snap in zip(MODULES, before)
                      for k, v in snap.items())
        assert changed == len(tr._patches) > 0
    finally:
        tr.remove()
    for m, snap in zip(MODULES, before):
        assert vars(m).keys() == snap.keys()
        assert all(vars(m)[k] is v for k, v in snap.items()), m.__name__


def test_every_sampler_takes_a_seed():
    for s in tracer.SAMPLERS:
        assert "seed" in inspect.signature(getattr(samplers, f"simulate_{s}")).parameters, s


def test_traced_replicas_pass_the_workload_checks():
    target = builtin_target("gaussian_aniso", H=[[2.0, 0.5], [0.5, 1.0]])
    obs = builtin_observable("cos", target)
    inputs = {"config_seed": 7, "aniso": target, "aniso_obs": obs}
    momentum = MomentumModel(kind="gaussian", beta=target.beta)
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        trajs = {kind: workloads.simulate_replica(inputs, kind, 0)[0]
                 for kind in ("zigzag/aniso", "bps/aniso")}
        # the positional calls of the benchmark's probe
        trajs["hhmc"] = samplers.simulate_hhmc(target, momentum, 1.0, 20.0, 3)
        trajs["langevin"] = samplers.simulate_langevin(target, momentum, 1.0, 2.0,
                                                       workloads.LANGEVIN_STEP, 3)
    finally:
        tr.remove()
    for label, traj in trajs.items():
        assert workloads.replica_outcome(traj, obs, label).failures == []

    zz = trajs["zigzag/aniso"]
    assert {e.kind for e in zz.events} == {"flip", "refresh"}
    assert len(trajs["langevin"].times) == 201
    c = tr.counts
    assert c[("segments", "zigzag")] == len(zz.segments)
    assert c[("clock_events", "zigzag")] == sum(e.kind == "flip" for e in zz.events)
    assert c[("steps", "langevin")] == 200
    assert c[("replicas", "bps")] == c[("replicas", "hhmc")] == 1


@pytest.mark.parametrize("sampler", ["zigzag", "bps", "hhmc"])
def test_run_replicas_simulates_each_replica_through_the_wrapped_name(std_config, sampler):
    # validation.trajectories_per_replica counts the wrapped simulate_<s>
    # calls made inside run_replicas; an engine that goes around them
    # leaves the traced workloads with nothing to measure
    config = dataclasses.replace(std_config, sampler=sampler, T=5.0, replicas=3)
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        validation.run_replicas(config)
    finally:
        tr.remove()
    assert tr.counts["validation.simulate_calls"] == config.replicas
    assert tracer.layer_metrics(tr)["validation.trajectories_per_replica"] == 1.0


def _traced_flight(sampler, base, seed):
    """A zig-zag or BPS run on a counted copy of ``base`` under the tracer."""
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        target = workloads.counting_target(base, tracer.counting_wrapper(tr))
        q0 = None if base.is_quadratic else np.full(base.dim, 0.9)
        if sampler == "zigzag":
            traj = samplers.simulate_zigzag(target, 100.0, seed, 1.0, q0)
        else:
            mom = MomentumModel(kind="gaussian", mass=2.5, beta=target.beta)
            traj = samplers.simulate_bps(target, mom, 1.0, 100.0, seed, q0)
    finally:
        tr.remove()
    return tr, traj


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
def test_one_dimensional_flights_keep_the_clock_and_gradient_hooks(monkeypatch, sampler):
    # samplers.clock_yield divides clock events by the calls of the module
    # globals invert_affine_rate and sample_by_thinning, and
    # targets.{gradient,hessian_bound}_calls_per_event count the target's
    # calls: the d = 1 float state must make one inversion per flight and one
    # gradient call at the start and at each event point on a quadratic
    # target, and one thinning call per flight, with the inversions, gradient
    # and Hessian-bound calls of the (d,) arrays, on a thinned one
    tr, traj = _traced_flight(sampler, builtin_target("gaussian_iso", dim=1, h=1.3), 5)
    assert len(traj.events) > 64
    assert tr.counts["samplers.invert_affine_rate"] == len(traj.segments)
    assert tr.counts["targets.gradient"] == len(traj.events) + 1

    well = builtin_target("double_well", beta=1.5, poincare_const=1.0)
    tr, traj = _traced_flight(sampler, well, 5)
    assert len(traj.events) > 64
    assert tr.calls("samplers.sample_by_thinning") == len(traj.segments)
    flight_state = samplers._flight_state
    monkeypatch.setattr(samplers, "_flight_state",
                        lambda *kit: flight_state(*kit[:-1], False))
    tr_arrays, traj_arrays = _traced_flight(sampler, well, 5)
    assert np.array_equal(traj.segments.duration, traj_arrays.segments.duration)
    for name in ("samplers.invert_affine_rate", "targets.gradient", "targets.hessian_bound"):
        assert tr.counts[name] == tr_arrays.counts[name] > len(traj.segments), name


@pytest.mark.parametrize("sampler", ["zigzag", "bps"])
def test_array_flights_keep_the_clock_and_gradient_hooks(sampler):
    # the (d,) array state that clocks-stress runs at d = 50 must call the
    # module globals invert_affine_rate and sample_by_thinning once per clock
    # and flight, d clocks for zig-zag and one for BPS, and the gradient at
    # the start and at each event point
    H = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, -0.3], [0.0, -0.3, 1.0]])
    tr, traj = _traced_flight(sampler, builtin_target("gaussian_aniso", H=H), 5)
    assert len(traj.events) > 64
    clocks = 3 if sampler == "zigzag" else 1
    assert tr.counts["samplers.invert_affine_rate"] == clocks * len(traj.segments)
    assert tr.counts["targets.gradient"] == len(traj.events) + 1

    tr, traj = _traced_flight(sampler, separable_well(2), 5)
    assert len(traj.events) > 64
    clocks = 2 if sampler == "zigzag" else 1
    assert tr.calls("samplers.sample_by_thinning") == clocks * len(traj.segments)


def test_flow_records_have_the_layout_the_benchmark_reads():
    # the tracer reads len(segments), len(events) and each event's kind, and
    # replica_outcome sums seg.duration over the rows
    target = builtin_target("gaussian_iso", dim=2)
    momentum = MomentumModel(kind="gaussian", beta=target.beta)
    T = 20.0
    for traj in (samplers.simulate_zigzag(target, T, 3, 1.0),
                 samplers.simulate_bps(target, momentum, 1.0, T, 3),
                 samplers.simulate_hhmc(target, momentum, 1.0, T, 3)):
        seg, ev = traj.segments, traj.events
        assert seg.dtype.names == ("t0", "duration", "q0", "p0"), traj.sampler
        assert ev.dtype.names == ("time", "kind"), traj.sampler
        assert seg.q0.shape == seg.p0.shape == (len(seg), 2)
        assert abs(sum(row.duration for row in seg) - T) <= 1e-9 * T
        assert len(ev) > 0 and np.array_equal(ev.time, seg.t0[1:]), traj.sampler


def _unused_imports(path: Path) -> set:
    """The names a module imports at its top level but never references."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_dead_imports():
    # ``__init__`` imports to re-export; a name the tracer wraps on a module
    # is kept there for the benchmark even where the module no longer calls it
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        patched = {(owner.__name__.rsplit(".", 1)[-1], attr) for owner, attr, _ in tr._patches}
    finally:
        tr.remove()
    dead = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"
            for name in _unused_imports(path) if (path.stem, name) not in patched}
    assert dead == set()


def test_no_module_under_src_imports_scipy():
    # scipy is a test oracle, not a runtime requirement: no import statement
    # under src/ names it, nor does a string that could be handed to
    # importlib
    found = set()
    for path in PACKAGE.parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.add(path.relative_to(PACKAGE.parent).as_posix())
    assert found == set()


def test_package_code_reads_the_flight_columns_only():
    # a trajectory's ``segments`` and ``events`` record arrays are views for
    # outside readers (the tracer, the workloads, tests): no module under
    # src/ reads an attribute of either name outside the Trajectory class
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        inside = {id(n) for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Trajectory"
                  for n in ast.walk(node)}
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in ("segments", "events")
                  and id(n) not in inside]
    assert found == []


def test_no_dead_private_helpers():
    # a module-level ``_name`` def or class must be referenced somewhere in
    # the package outside its own definition, or it is dead code
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    dead = set()
    for tree in trees:
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       or isinstance(n, ast.Attribute) and n.attr == node.name
                       for other in trees for n in ast.walk(other) if id(n) not in inside):
                dead.add(node.name)
    assert dead == set()
