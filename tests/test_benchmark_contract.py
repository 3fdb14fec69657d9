"""The package surface that the benchmark in ``perfbench/`` reads.

``perfbench/tracer.py`` wraps package functions at the names their callers
look up and reads each trajectory's events, segments and step grid;
``perfbench/workloads.py`` calls the samplers with positional arguments and
checks every trajectory with ``replica_outcome``.  A change that breaks one
of these reads fails here in about a second, not only in the benchmark's
own five-minute test run.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

from hypoguard import MomentumModel, builtin_observable, builtin_target
from hypoguard import cli, guarantees, hypocoercivity, samplers, targets, validation

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
