"""The one content-addressed store beneath the run cache and the replay store.

Both stores read through :class:`repro.runtime.store.ContentStore`, so
one table of damaged entries covers both: every damage reads as a miss
(never a crash, never a hit) and the next put heals the entry back to
the exact bytes it had.  A layering guard keeps the store where it
lives: nothing under ``src/repro/runtime/`` may import ``repro.bench``.
"""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.bench.cache import RunCache, fingerprint_run
from repro.params import CostModel, MachineConfig
from repro.runtime import DEFAULT_QUANTUM
from repro.runtime.replay import ReplayStore
from repro.runtime.store import StoreStats


def _run_cache(root):
    """``(stats, get, put)`` over one RunCache key; payload field ``run``."""
    cache = RunCache(root, source="fixed")
    key, preimage = fingerprint_run(
        MachineConfig(total_processors=4, cluster_size=2),
        CostModel(), DEFAULT_QUANTUM, "wl", None, source="fixed",
    )
    return (
        cache.stats,
        lambda: cache.get(key),
        lambda: cache.put(key, preimage, {"payload": [1, 2]}, 0.5),
    )


def _replay_store(root):
    """``(stats, get, put)`` over one ReplayStore record; payload field
    ``record``."""
    store = ReplayStore(root, source="fixed")
    ctx = store.context_key({"engine": "MGSProtocol"})
    return (
        store.stats,
        lambda: store.load(ctx, "digest"),
        lambda: store.put(ctx, "digest", {"advance": 7}),
    )


def _reshape(change):
    """A damage that edits the valid entry's JSON object."""

    def damage(blob: bytes, field: str) -> bytes:
        entry = json.loads(blob)
        change(entry, field)
        return json.dumps(entry).encode()

    return damage


#: damage name -> f(valid entry bytes, payload field) -> damaged bytes
DAMAGES = {
    "garbage bytes": lambda blob, field: b"\x00\xff\xfe garbage",
    "truncated JSON": lambda blob, field: blob[: len(blob) // 2],
    "non-object JSON": lambda blob, field: b"[1,2]",
    "wrong schema": _reshape(lambda e, f: e.update(schema=e["schema"] - 1)),
    "wrong key": _reshape(lambda e, f: e.update(key="0" * 64)),
    "missing payload": _reshape(lambda e, f: e.pop(f)),
    "payload not an object": _reshape(lambda e, f: e.update({f: [1]})),
}


@pytest.mark.parametrize(
    "opener, field",
    [(_run_cache, "run"), (_replay_store, "record")],
    ids=["run_cache", "replay_store"],
)
@pytest.mark.parametrize("damage", list(DAMAGES))
def test_damaged_entry_is_a_miss_and_heals(tmp_path, opener, field, damage):
    stats, _, put = opener(tmp_path)
    put()
    (path,) = tmp_path.glob("*/*.json")
    good = path.read_bytes()
    path.write_bytes(DAMAGES[damage](good, field))

    stats, get, put = opener(tmp_path)  # a fresh process: nothing memoized
    assert get() is None
    assert (stats.hits, stats.misses) == (0, 1)
    put()
    assert path.read_bytes() == good

    stats, get, _ = opener(tmp_path)
    assert get() is not None
    assert (stats.hits, stats.misses) == (1, 0)


def test_replay_memo_hits_count_as_records_read(tmp_path):
    stats, get, put = _replay_store(tmp_path)
    put()
    assert get() == get() == {"advance": 7}
    assert (stats.hits, stats.bytes_read, stats.stores) == (2, 0, 1)


def test_store_stats_total_sums_every_counter():
    a, b = StoreStats(hits=1, bytes_read=10), StoreStats(hits=2, misses=3)
    assert StoreStats.total([a, b]).as_dict() == {
        "hits": 3, "misses": 3, "stores": 0, "verified": 0,
        "bytes_read": 10, "bytes_written": 0,
    }


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_runtime_never_imports_bench():
    """``repro.bench`` builds on ``repro.runtime``, never the reverse."""
    runtime = Path(repro.__file__).resolve().parent / "runtime"
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(runtime.rglob("*.py"))
        for name in _imports(ast.parse(path.read_text()))
        if name == "repro.bench" or name.startswith("repro.bench.")
    ]
    assert runtime.is_dir() and not offenders
