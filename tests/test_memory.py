"""Memory footprint of the simulator's two largest containers, and the
teardown that frees a finished run.

Locks and line-directory entries dominate a simulation's own memory:
Barnes-Hut creates one lock per tree node, and every cached line keeps a
directory entry per cluster.  These bounds sit between the slotted,
list-queued locks and sharer-bitmask lines (about 4.2 MB and 2.7 MB) and
the ``deque``-per-SSMP locks and sharer sets they replaced (40.0 MB and
7.0 MB), so a regression to either older layout fails.

A sweep builds one machine per point, so an app's ``run()`` closes its
Runtime (``Runtime.close``): reference counting alone must then free it,
and every statistic a caller reads afterwards must be unchanged.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.analysis import setup_analysis
from repro.apps import jacobi, scanphase, tsp
from repro.core.engine import engine_names
from repro.hw import CacheSystem
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime


def _allocated_mb(build) -> float:
    """Megabytes (10**6 bytes) still allocated after ``build()`` returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept is not None
    return (after - before) / 1e6


def test_barnes_hut_sized_lock_pool_stays_small():
    rt = Runtime(MachineConfig(total_processors=32, cluster_size=1))
    mb = _allocated_mb(lambda: [rt.create_lock() for _ in range(1536)])
    assert mb < 10.0, f"1536 locks at P=32, C=1 took {mb:.1f} MB"


def test_two_sharer_directory_lines_stay_small():
    cache = CacheSystem(MachineConfig(total_processors=8, cluster_size=8), CostModel())

    def fill():
        for line in range(20_000):
            cache.access(0, 1, line, False, 0)
            cache.access(0, 2, line, False, 0)
        return cache

    mb = _allocated_mb(fill)
    assert cache.lines_cached(0) == 20_000
    assert mb < 5.0, f"20,000 two-sharer lines took {mb:.1f} MB"


#: small points of a phased app (fresh Envs every phase) and a lock-bound one
_APPS = {
    "jacobi": (jacobi, jacobi.JacobiParams(n=16, iterations=3)),
    "tsp": (tsp, tsp.TSPParams(ncities=6)),
}
_POINTS = [("jacobi", e) for e in engine_names()] + [("tsp", "mgs")]


@pytest.mark.parametrize("app,engine", _POINTS)
def test_app_run_frees_its_runtime_without_the_collector(app, engine):
    module, params = _APPS[app]
    config = MachineConfig(total_processors=4, cluster_size=2, protocol=engine)
    caught: list[Runtime] = []
    hook = caught.append
    Runtime.construction_hooks.append(hook)
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            run = module.run(config, params)
        finally:
            Runtime.construction_hooks.remove(hook)
        alive = weakref.ref(caught.pop())
        assert run.require_valid().total_time > 0
        del run
        assert alive() is None, "the finished Runtime is left to the collector"
    finally:
        if collecting:
            gc.enable()


def test_analyzed_run_leaves_no_cyclic_garbage():
    """A run with both checkers attached (``setup_analysis(rt, "all")``)
    is freed by reference counting too, and the checkers' reports stay
    readable through the closed Runtime."""
    module, params = _APPS["jacobi"]
    config = MachineConfig(total_processors=4, cluster_size=2)
    caught: list[Runtime] = []

    def hook(rt: Runtime) -> None:
        setup_analysis(rt, "all")
        caught.append(rt)

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    Runtime.construction_hooks.append(hook)
    try:
        try:
            run = module.run(config, params)
        finally:
            Runtime.construction_hooks.remove(hook)
        assert run.require_valid().total_time > 0
        rt = caught.pop()
        alive = weakref.ref(rt)
        sanitizer, detector = rt.sanitizer, rt.race_detector
        del run, rt
        assert alive() is None, "a checker keeps the closed Runtime alive"
        assert sanitizer.checked > 0
        detector.certify()
        del sanitizer, detector
        assert gc.collect() == 0, "the checkers are left to the collector"
    finally:
        if collecting:
            gc.enable()


def _statistics(rt: Runtime) -> dict:
    """Every count a caller reads from a finished Runtime, the
    performance ledger's included."""
    recorder = rt.phase_recorder
    return {
        "cache": dict(rt.cache.stats),
        "protocol": rt.protocol.stats.as_dict(),
        "flows": rt.protocol.bus.flow_summary(),
        "transactions": rt.protocol.bus.transaction_summary(),
        "inter_ssmp": rt.machine.stats.inter_ssmp,
        "locks": [(lk.stats.acquires, lk.stats.hits) for lk in rt.locks],
        "events": rt.sim.events_processed,
        "bypassed": [env.fastpath_bypassed for env in rt.envs],
        "replayed": None if recorder is None else recorder.replayed,
    }


@pytest.mark.parametrize(
    "module,params",
    [
        (tsp, tsp.TSPParams(ncities=6)),
        (scanphase, scanphase.ScanPhaseParams(words=512, phases=6)),
    ],
    ids=["tsp", "scanphase"],
)
def test_close_keeps_every_statistic_and_drops_the_state(module, params):
    rt = Runtime(
        MachineConfig(total_processors=4, cluster_size=2), options=RunOptions()
    )
    module.build(rt, params)
    rt.run()
    before = _statistics(rt)
    assert before["events"] and before["flows"] and rt.protocol.homes
    if module is scanphase:
        assert before["replayed"], "no phase replayed: pick a repeating point"
    rt.close()
    assert _statistics(rt) == before
    assert not rt.protocol.homes
    assert not any(rt.protocol.frames)
    assert not any(rt.cache.lines_cached(c) for c in range(2))
    assert not any(len(tlb) for tlb in rt.protocol.tlbs)
