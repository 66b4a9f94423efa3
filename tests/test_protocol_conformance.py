"""Cross-engine conformance: every registered engine runs the paper apps.

The registry contract (:mod:`repro.core.engine`) makes an engine a
drop-in replacement behind ``MachineConfig.protocol``.  This suite holds
every registered engine to it: each engine must run all five paper
applications to completion with numerically correct results, under the
race detector and the invariant sanitizer loaded with the engine's own
``arc_rules()`` (``Runtime.run`` sweeps the quiescence rules at the end
of every run).  A new engine gets this entire matrix for free the moment
it registers.

It also holds each engine's message vocabulary to one declaration: the
labels its ``@handles`` marks register on the bus.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import repro
from repro.analysis.invariants import InvariantSanitizer
from repro.apps import barnes_hut, jacobi, matmul, tsp, water
from repro.core.engine import UnknownEngineError, engine_class, engine_names
from repro.core.messages import ProtocolMessage
from repro.params import MachineConfig
from repro.runtime import Runtime

#: every paper app at conformance size: big enough to fault, share, and
#: synchronize across clusters; small enough that the full engine x app
#: matrix stays in tier-1 budget
APPS = {
    "jacobi": (jacobi, jacobi.JacobiParams(n=24, iterations=3)),
    "matmul": (matmul, matmul.MatmulParams(n=12)),
    "tsp": (tsp, tsp.TSPParams(ncities=7)),
    "water": (water, water.WaterParams(n_molecules=19, iterations=2)),
    "barnes-hut": (
        barnes_hut,
        barnes_hut.BarnesHutParams(n_bodies=24, iterations=2),
    ),
}


@pytest.fixture
def analyzed_runtimes():
    """Attach sanitizer + race detector to every Runtime built in a test,
    and hand the test the runtimes for post-run certification."""
    from repro.analysis import setup_analysis
    from repro.runtime import Runtime

    captured = []

    def hook(rt):
        setup_analysis(rt, "all")
        captured.append(rt)

    Runtime.construction_hooks.append(hook)
    try:
        yield captured
    finally:
        Runtime.construction_hooks.remove(hook)


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("app", sorted(APPS))
def test_engine_runs_app(engine, app, analyzed_runtimes):
    """One (engine, app) cell of the conformance matrix."""
    module, params = APPS[app]
    config = MachineConfig(
        total_processors=4, cluster_size=2, protocol=engine
    )
    run = module.run(config, params).require_valid()
    assert run.result.total_time > 0
    rt = analyzed_runtimes[-1]
    assert rt.protocol.name == engine
    # Runtime.run already checked the engine's structural invariants and
    # swept its quiescence arc rules through the attached sanitizer,
    # before the app's run() closed the runtime; certify the
    # happens-before race check on top.
    rt.race_detector.certify()


def _runtime(engine):
    return Runtime(
        MachineConfig(total_processors=4, cluster_size=2, protocol=engine)
    )


def _message_classes():
    """Every ProtocolMessage subclass defined in the ``repro`` package;
    each module is imported first, so none is missed."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = [], [ProtocolMessage]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


@pytest.fixture(scope="module")
def vocabularies():
    """Engine name -> the labels its bus has handlers for."""
    return {
        name: _runtime(name).protocol.bus.handled_labels()
        for name in engine_names()
    }


@pytest.mark.parametrize("engine", engine_names())
def test_engine_vocabulary_is_declared_once(engine, vocabularies):
    """The ``@handles`` marks are an engine's one declaration of its
    messages (``MessageBus.register`` already refuses a second handler
    for a label): the engine's arc rules check exactly those labels, no
    other engine handles any of them, and together the engines handle
    every message class in the tree."""
    rt = _runtime(engine)
    labels = rt.protocol.bus.handled_labels()
    arc_labels = set(InvariantSanitizer(rt).rules._CHECKS)
    assert labels == arc_labels, (
        f"handled but unchecked: {sorted(labels - arc_labels)}; "
        f"checked but unhandled: {sorted(arc_labels - labels)}"
    )
    for other, theirs in vocabularies.items():
        if other != engine:
            assert not labels & theirs, (
                f"{engine} and {other} both handle {sorted(labels & theirs)}"
            )
    classes = _message_classes()
    declared = {cls.label for cls in classes}
    assert len(declared) == len(classes), "two message classes share a label"
    handled = set().union(*vocabularies.values())
    assert handled == declared, (
        f"no engine handles {sorted(declared - handled)}; "
        f"no class sends {sorted(handled - declared)}"
    )


def test_registry_is_complete():
    assert engine_names() == ["gcs", "mgs", "sc_pages", "swdsm"]
    for name in engine_names():
        assert engine_class(name).name == name


def test_unknown_engine_fails_at_config_time():
    """A bad engine name dies at MachineConfig construction, naming the
    registry's known engines — long before any simulation starts."""
    with pytest.raises(UnknownEngineError) as exc:
        MachineConfig(total_processors=4, cluster_size=2, protocol="nope")
    for name in engine_names():
        assert name in str(exc.value)


def test_engines_differ_only_in_protocol_field():
    """The comparison harness varies exactly one config field."""
    base = MachineConfig(total_processors=4, cluster_size=2)
    # pick any engine that is not the default
    other_name = next(n for n in engine_names() if n != base.protocol)
    other = dataclasses.replace(base, protocol=other_name)
    diff = {
        f.name
        for f in dataclasses.fields(MachineConfig)
        if getattr(base, f.name) != getattr(other, f.name)
    }
    assert diff == {"protocol"}
