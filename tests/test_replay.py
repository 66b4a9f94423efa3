"""Phase replay correctness: replay-on must be bit-for-bit replay-off.

The acceptance bar for the closed-form replay engine
(:mod:`repro.runtime.replay`) is golden full-state equivalence for every
registered protocol engine across the paper's application suite: clocks,
per-thread cycle buckets, cache and protocol statistics, message flows,
event counts, and the computed output must be identical whether repeated
phases are re-executed or applied as recorded deltas.  These tests pin
that, plus the surrounding contract: the ``REPRO_NO_REPLAY`` escape
hatch, the spawn/spawn_phases mutual exclusion, that replay actually
*fires* on the workload built to show it off (scanphase), and that only
phases whose key recurs pay for a digest (Jacobi pays for none).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import barnes_hut, jacobi, matmul, scanphase, tsp, water
from repro.core.engine import engine_names
from repro.params import MachineConfig
from repro.runtime import RunOptions, Runtime
from repro.runtime.replay import PhaseRecorder
from tests.machine_state import run_state

ENGINES = engine_names()

#: tiny-but-representative paper apps: every sharing pattern in Table 4
PAPER_APPS = {
    "jacobi": (jacobi, jacobi.JacobiParams(n=16, iterations=4)),
    "matmul": (matmul, matmul.MatmulParams(n=8)),
    "tsp": (tsp, tsp.TSPParams(ncities=6)),
    "water": (water, water.WaterParams(n_molecules=9, iterations=1)),
    "barnes-hut": (
        barnes_hut,
        barnes_hut.BarnesHutParams(n_bodies=12, iterations=1),
    ),
}

SCAN_PARAMS = scanphase.ScanPhaseParams(
    words=256, phases=6, window=16, chunk=8
)


def _full_state(module, params, protocol: str, replay: bool) -> dict:
    config = MachineConfig(
        total_processors=4, cluster_size=2, protocol=protocol
    )
    rt = Runtime(config, options=RunOptions(replay=replay))
    final = module.build(rt, params)
    result = rt.run()
    state = run_state(rt, result)
    snapshot = getattr(final, "snapshot", None)
    if snapshot is not None:
        state["output"] = np.asarray(snapshot()).tolist()
    return state, rt


@pytest.mark.parametrize("engine", ENGINES)
def test_replay_equivalence_paper_apps(engine):
    """Replay-on == replay-off, full state, engine x app (acceptance)."""
    for app, (module, params) in PAPER_APPS.items():
        on, _ = _full_state(module, params, engine, replay=True)
        off, _ = _full_state(module, params, engine, replay=False)
        for key in on:
            assert on[key] == off[key], f"{engine}/{app}: replay changed {key}"


@pytest.mark.parametrize("engine", ENGINES)
def test_replay_equivalence_and_fires_scanphase(engine):
    """The showcase workload must actually replay — under every engine —
    and still match the fully-executed run on every observable."""
    on, rt = _full_state(scanphase, SCAN_PARAMS, engine, replay=True)
    off, _ = _full_state(scanphase, SCAN_PARAMS, engine, replay=False)
    recorder = rt.phase_recorder
    assert recorder is not None and recorder.replayed > 0, (
        f"{engine}: no phase replayed on the replay showcase"
    )
    for key in on:
        assert on[key] == off[key], f"{engine}: replay changed {key}"


def _count_digests(monkeypatch) -> list:
    """Record the phase key of every ``PhaseRecorder.state_digest`` call."""
    keys = []
    real = PhaseRecorder.state_digest

    def spy(self, phase_key):
        keys.append(phase_key)
        return real(self, phase_key)

    monkeypatch.setattr(PhaseRecorder, "state_digest", spy)
    return keys


@pytest.mark.parametrize("engine", ENGINES)
def test_jacobi_digests_no_phase(engine, monkeypatch):
    """Jacobi's phases never return to their entry state, so it passes
    no replay keys and no phase boundary is digested."""
    keys = _count_digests(monkeypatch)
    module, params = PAPER_APPS["jacobi"]
    _, rt = _full_state(module, params, engine, replay=True)
    assert rt.phase_recorder is not None
    assert keys == []


@pytest.mark.parametrize("engine", ENGINES)
def test_only_recurring_keys_digest_and_replay_equivalence(engine, monkeypatch):
    """Keys ``[0, 1, 0, 2]``: only the two key-0 phases are digested
    (before and after each executes), and the run still matches the
    replay-off run on every observable."""
    config = MachineConfig(total_processors=4, cluster_size=2, protocol=engine)

    def run(replay: bool):
        rt = Runtime(config, options=RunOptions(replay=replay))
        data = rt.array("data", 64)
        data.init(range(64))

        def factory(env, phase):
            def gen():
                yield from env.read_block(data.addr(16 * env.pid), 16)
                yield from env.compute(500)
                yield from env.barrier()

            return gen()

        rt.spawn_phases(factory, 4, keys=[0, 1, 0, 2])
        return run_state(rt, rt.run()), rt

    keys = _count_digests(monkeypatch)
    on, rt = run(replay=True)
    assert keys == [0, 0, 0, 0]
    # the cold first phase changes the state; the warm second one is
    # state-idempotent and recorded
    assert rt.phase_recorder.recorded == 1
    off, _ = run(replay=False)
    assert keys == [0, 0, 0, 0]
    for key in on:
        assert on[key] == off[key], f"{engine}: replay changed {key}"


def test_scanphase_validates_under_replay():
    config = MachineConfig(total_processors=4, cluster_size=2)
    run = scanphase.run(config, SCAN_PARAMS).require_valid()
    # Counters live in result.replay_cache (never in aux, which the run
    # cache serializes and must stay identical cold vs. replay-warm).
    assert run.result.replay_cache["replayed"] > 0
    assert run.result.replay_cache["recorded"] >= 1


def test_no_replay_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    config = MachineConfig(total_processors=4, cluster_size=2)
    rt = Runtime(config)
    assert rt.options.replay is False
    scanphase.build(rt, SCAN_PARAMS)
    rt.run()
    assert rt.phase_recorder is None


def test_replay_flag_overrides_environment(monkeypatch):
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    config = MachineConfig(total_processors=4, cluster_size=2)
    on = RunOptions(replay=True)
    assert Runtime(config, options=on).options.replay is True
    # a single field changed on top of the environment's options
    changed = replace(RunOptions.from_env(), replay=True)
    assert Runtime(config, options=changed).options.replay is True
    monkeypatch.delenv("REPRO_NO_REPLAY")
    off = RunOptions(replay=False)
    assert Runtime(config, options=off).options.replay is False


def test_spawn_and_spawn_phases_are_mutually_exclusive():
    config = MachineConfig(total_processors=2, cluster_size=1)

    def factory(env, phase):
        def gen():
            yield from env.barrier()

        return gen()

    def worker(env):
        yield from env.compute(1)

    rt = Runtime(config)
    rt.spawn(worker)
    with pytest.raises(RuntimeError, match="cannot be mixed"):
        rt.spawn_phases(factory, 2)

    rt = Runtime(config)
    rt.spawn_phases(factory, 2)
    with pytest.raises(RuntimeError, match="cannot be mixed"):
        rt.spawn(worker)
