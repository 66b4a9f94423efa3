"""The persistent cross-run replay store: correctness and invalidation.

The store (:class:`repro.runtime.replay.ReplayStore`) lets a *fresh
process* apply phase deltas recorded by an earlier run.  The acceptance
bar mirrors in-process replay: a store-warm run must be bit-for-bit
identical to both the recording run and a replay-off run, for every
registered engine.  On top of that these tests pin the store's safety
rails — source-fingerprint invalidation, self-healing on corrupt or
truncated entries, the ``REPRO_NO_REPLAY`` kill switch dominating the
store selectors — and run one genuine two-process round trip through
``REPRO_REPLAY_CACHE_DIR``.  Clearing ``REPLAY_STORES`` (the process's
one-store-per-directory map) models a cold process in between.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import scanphase
from repro.core.engine import engine_names
from repro.params import MachineConfig
from repro.runtime import RunOptions
from repro.runtime import replay as replay_mod
from repro.runtime.replay import REPLAY_STORES, resolve_replay_store
from tests.machine_state import run_state

ENGINES = engine_names()

SCAN = scanphase.ScanPhaseParams(words=256, phases=6, window=16, chunk=8)


def _scan_state(engine, store, replay=True):
    """Full externally visible machine state of one scanphase run.

    ``store`` is the replay store directory (None: in-process replay
    only).  Each run starts from a cold store, as a fresh process would:
    its decoded-payload memo is empty, so every record comes off disk.
    """
    REPLAY_STORES.clear()
    config = MachineConfig(
        total_processors=4, cluster_size=2, protocol=engine
    )
    options = RunOptions(replay=replay, replay_cache=store)
    rt = scanphase.make_runtime(config, options=options)
    scanphase.build(rt, SCAN)
    result = rt.run()
    return run_state(rt, result), result.replay_cache


# ---------------------------------------------------------------------------
# cross-run equivalence (the acceptance bar)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_cross_run_replay_equivalence(engine, tmp_path):
    """A fresh runtime fed only persisted deltas reproduces the full
    machine state of both the recording run and a replay-off run."""
    off, _ = _scan_state(engine, store=None, replay=False)
    cold, cold_counters = _scan_state(engine, store=tmp_path)
    assert cold_counters["stores"] >= 1
    assert cold_counters["hits"] == 0
    warm, warm_counters = _scan_state(engine, store=tmp_path)
    assert warm == cold == off
    assert warm_counters["hits"] > 0
    assert warm_counters["loads"] >= 1
    assert warm_counters["stores"] == 0
    # Persistence replays phases the recording run had to execute.
    assert warm_counters["replayed"] > cold_counters["replayed"]


def test_store_warm_run_validates(tmp_path):
    config = MachineConfig(total_processors=4, cluster_size=2)
    stored = RunOptions(replay_cache=tmp_path)
    scanphase.run(config, SCAN).require_valid()  # no store: baseline
    run = scanphase.run(config, SCAN)  # env off -> no store either
    assert run.result.replay_cache["hits"] == 0
    # Prime, then validate a warm run end to end through scanphase.run's
    # own golden check.
    rt = scanphase.make_runtime(config, options=stored)
    scanphase.build(rt, SCAN)
    rt.run()
    REPLAY_STORES.clear()
    rt2 = scanphase.make_runtime(config, options=stored)
    checks = scanphase.build(rt2, SCAN)
    result = rt2.run()
    assert result.replay_cache["hits"] > 0
    golden = scanphase.golden(SCAN, 4)
    measured = [v for _, v in sorted(checks)]
    assert measured == pytest.approx(golden)


# ---------------------------------------------------------------------------
# invalidation and self-healing
# ---------------------------------------------------------------------------


def test_source_fingerprint_invalidates_records(tmp_path, monkeypatch):
    """A record written under one simulator source tree is never matched
    under another — the context key embeds the fingerprint."""

    def under(source):
        monkeypatch.setattr(replay_mod, "source_fingerprint", lambda: source)
        return _scan_state("mgs", store=tmp_path)

    baseline, first = under("fp-one")
    assert first["stores"] >= 1
    changed, second = under("fp-two")
    assert changed == baseline
    assert second["hits"] == 0  # old records invisible
    assert second["stores"] >= 1  # re-recorded under the new context
    back, third = under("fp-one")
    assert back == baseline
    assert third["hits"] > 0 and third["stores"] == 0


def test_corrupt_and_truncated_entries_heal_to_live_run(tmp_path):
    baseline, _ = _scan_state("mgs", store=tmp_path)
    entries = sorted(tmp_path.rglob("*.json"))
    assert entries
    entries[0].write_text("{ truncated garb")  # undecodable
    for extra in entries[1:]:
        extra.write_text(json.dumps({"replay_schema": -1}))  # wrong shape
    healed, counters = _scan_state("mgs", store=tmp_path)
    assert healed == baseline  # fell back to live execution, bit-for-bit
    assert counters["hits"] == 0
    assert counters["stores"] >= 1  # rewrote the damaged entries
    again, after = _scan_state("mgs", store=tmp_path)
    assert again == baseline
    assert after["hits"] > 0  # healed entries serve again


def test_record_payload_round_trip_rejects_shape_mismatch(tmp_path):
    """Payload decoding is defensive: a record from a different machine
    shape (stat-cell layout) is rejected, not mis-applied."""
    from repro.runtime.replay import record_from_payload

    _scan_state("mgs", store=tmp_path)
    entry = json.loads(sorted(tmp_path.rglob("*.json"))[0].read_text())
    payload = entry["record"]
    n_ints = len(payload["stats"]["ints"])
    ok = record_from_payload(payload, n_ints, len(payload["stats"]["counts"]), 4)
    assert ok is not None and ok.from_store
    assert record_from_payload(payload, n_ints + 1, 1, 4) is None
    assert record_from_payload({"advance": 1}, n_ints, 1, 4) is None


# ---------------------------------------------------------------------------
# store resolution
# ---------------------------------------------------------------------------


def _env_store():
    return resolve_replay_store(RunOptions.from_env())


def test_no_replay_env_dominates_store_selectors(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_NO_REPLAY", raising=False)
    monkeypatch.setenv("REPRO_REPLAY_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_REPLAY_CACHE", "1")
    assert _env_store() is not None
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    assert _env_store() is None


def test_resolver_shares_one_store_per_directory(tmp_path):
    a = RunOptions(replay_cache=tmp_path / "a")
    a1 = resolve_replay_store(a)
    # another options object naming the same directory (a pool job's
    # pickled copy, say) shares the store and its payload memo
    assert resolve_replay_store(RunOptions(replay_cache=tmp_path / "a")) is a1
    b = resolve_replay_store(RunOptions(replay_cache=tmp_path / "b"))
    assert b is not a1 and b.root == tmp_path / "b"
    REPLAY_STORES.clear()  # a cold process
    assert resolve_replay_store(a) is not a1


def test_off_by_default(monkeypatch):
    for var in ("REPRO_REPLAY_CACHE", "REPRO_REPLAY_CACHE_DIR"):
        monkeypatch.delenv(var, raising=False)
    assert _env_store() is None
    assert resolve_replay_store(RunOptions()) is None


# ---------------------------------------------------------------------------
# a real two-process round trip
# ---------------------------------------------------------------------------

_SUBPROCESS_PROGRAM = """\
import json
from repro.apps import scanphase
from repro.params import MachineConfig

run = scanphase.run(
    MachineConfig(total_processors=4, cluster_size=2),
    scanphase.ScanPhaseParams(words=256, phases=6, window=16, chunk=8),
)
assert run.valid
r = run.result
state = {
    "total_time": r.total_time,
    "threads": [
        [t.time, t.user, t.lock, t.barrier, t.mgs, t.finish_time]
        for t in r.threads
    ],
    "cache": dict(r.cache_stats),
    "protocol": dict(r.protocol_stats),
    "messages": [r.messages_inter_ssmp, r.messages_intra_ssmp],
}
print(json.dumps(state, sort_keys=True))
print(json.dumps(r.replay_cache, sort_keys=True))
"""


def test_separate_processes_share_the_replay_store(tmp_path):
    """Cold process records; a second, genuinely fresh process replays
    from disk and emits byte-identical state."""
    env = dict(os.environ)
    env.pop("REPRO_NO_REPLAY", None)
    env["REPRO_REPLAY_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])

    def run_once():
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_PROGRAM],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        state_line, counter_line = proc.stdout.splitlines()
        return state_line, json.loads(counter_line)

    cold_state, cold = run_once()
    assert cold["stores"] >= 1 and cold["hits"] == 0
    warm_state, warm = run_once()
    assert warm_state == cold_state  # byte-identical observables
    assert warm["hits"] > 0 and warm["stores"] == 0
