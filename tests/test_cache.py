"""The content-addressed run cache: keys, round-trips, hits, verification.

The contract under test (ISSUE 4 acceptance criteria):

* a warm sweep rerun performs **zero simulation** — every point is
  served from cache and the hit counter equals the point count;
* ``cache_verify`` re-executes cached points and reproduces them
  bit-for-bit, failing loudly on any divergence;
* any change to the ``src/repro/`` sources (the source fingerprint)
  invalidates every key.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.apps import jacobi
from repro.bench import sweep as sweep_mod
from repro.bench.cache import (
    DEFAULT_CACHE_DIR,
    CacheVerifyError,
    RunCache,
    app_run_from_dict,
    app_run_to_dict,
    canonical_json,
    fingerprint_run,
    resolve_cache,
    source_fingerprint,
)
from repro.bench.sweep import run_sweep
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions

PARAMS = jacobi.JacobiParams(n=16, iterations=2)


def _sweep(cache, sizes=None, **kw):
    return run_sweep(
        jacobi,
        params=PARAMS,
        total_processors=4,
        sizes=sizes,
        cache=cache,
        **kw,
    )


def _entry_files(root):
    return sorted(root.glob("*/*.json"))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_key_sensitive_to_every_input():
    config = MachineConfig(total_processors=4, cluster_size=2)
    base, _ = fingerprint_run(config, None, 1500, "app", PARAMS, source="s")
    variants = [
        fingerprint_run(config.with_cluster_size(4), None, 1500, "app", PARAMS,
                        source="s"),
        fingerprint_run(config, CostModel(cache_hit=3), 1500, "app", PARAMS,
                        source="s"),
        fingerprint_run(config, None, 2000, "app", PARAMS, source="s"),
        fingerprint_run(config, None, 1500, "other", PARAMS, source="s"),
        fingerprint_run(config, None, 1500, "app",
                        jacobi.JacobiParams(n=17, iterations=2), source="s"),
        fingerprint_run(config, None, 1500, "app", PARAMS, source="s2"),
    ]
    keys = {base} | {k for k, _ in variants}
    assert len(keys) == len(variants) + 1, "some input did not change the key"


def test_key_distinct_per_protocol():
    """Two configs differing only in the engine never share a cache key."""
    from repro.core.engine import engine_names

    config = MachineConfig(total_processors=4, cluster_size=2)
    engines = engine_names()
    keys = {
        fingerprint_run(
            dataclasses.replace(config, protocol=name),
            None, 1500, "app", PARAMS, source="s",
        )[0]
        for name in engines
    }
    assert len(keys) == len(engines)


def test_key_stable_for_equal_inputs():
    config = MachineConfig(total_processors=4, cluster_size=2)
    k1, _ = fingerprint_run(config, None, 1500, "app", PARAMS, source="s")
    k2, _ = fingerprint_run(
        MachineConfig(total_processors=4, cluster_size=2),
        CostModel(),
        1500,
        "app",
        jacobi.JacobiParams(n=16, iterations=2),
        source="s",
    )
    assert k1 == k2


def test_source_fingerprint_tracks_file_contents(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    fp1 = source_fingerprint(tmp_path)
    assert fp1 == source_fingerprint(tmp_path)
    (tmp_path / "a.py").write_text("x = 2\n")
    assert source_fingerprint(tmp_path) != fp1
    (tmp_path / "b.py").write_text("")
    fp3 = source_fingerprint(tmp_path)
    (tmp_path / "b.py").rename(tmp_path / "c.py")
    assert source_fingerprint(tmp_path) != fp3  # renames count too


def test_default_source_fingerprint_is_memoized_and_stable():
    assert source_fingerprint() == source_fingerprint()
    assert len(source_fingerprint()) == 64


# ---------------------------------------------------------------------------
# RunResult / AppRun round-trip
# ---------------------------------------------------------------------------


def test_app_run_round_trips_bit_for_bit():
    config = MachineConfig(total_processors=4, cluster_size=2)
    run = jacobi.run(config, PARAMS)
    payload = app_run_to_dict(run)
    # through real JSON, like the cache file does
    restored = app_run_from_dict(json.loads(json.dumps(payload)))
    assert restored.name == run.name
    assert restored.valid == run.valid
    assert restored.max_error == run.max_error
    assert restored.result.config == run.result.config
    assert restored.result.total_time == run.result.total_time
    assert restored.result.breakdown() == run.result.breakdown()
    assert restored.result.lock_stats.hit_ratio == run.result.lock_stats.hit_ratio
    assert restored.result.message_flows == run.result.message_flows
    assert restored.result.network_stats == run.result.network_stats
    assert restored.result.transactions == run.result.transactions
    # and the canonical serialized forms are identical (the verify contract)
    assert canonical_json(app_run_to_dict(restored)) == canonical_json(payload)


# ---------------------------------------------------------------------------
# sweeps through the cache
# ---------------------------------------------------------------------------


def test_warm_sweep_is_all_hits_and_never_simulates(tmp_path, monkeypatch):
    cold = RunCache(tmp_path / "c")
    sweep_cold = _sweep(cold)
    npoints = len(sweep_cold.points)
    assert cold.stats.misses == npoints
    assert cold.stats.stores == npoints
    assert _entry_files(tmp_path / "c")

    def boom(*args, **kwargs):  # the acceptance criterion: zero simulation
        raise AssertionError("warm pass simulated a point")

    monkeypatch.setattr(sweep_mod, "_sweep_point_payload", boom)
    monkeypatch.setattr(sweep_mod, "_sweep_point", boom)
    warm = RunCache(tmp_path / "c")
    sweep_warm = _sweep(warm)
    assert warm.stats.hits == npoints
    assert warm.stats.misses == 0
    assert dataclasses.asdict(sweep_warm) == dataclasses.asdict(sweep_cold)


def test_cached_sweep_matches_uncached(tmp_path):
    plain = _sweep(False)
    cached = _sweep(RunCache(tmp_path / "c"))
    rewarmed = _sweep(RunCache(tmp_path / "c"))
    assert dataclasses.asdict(cached) == dataclasses.asdict(plain)
    assert dataclasses.asdict(rewarmed) == dataclasses.asdict(plain)


def test_barnes_hut_sweep_round_trips_through_the_cache(tmp_path):
    """Barnes-Hut computes ``AppRun.valid`` as a numpy.bool_, which the
    store must encode as a JSON bool."""
    from repro.apps import barnes_hut

    def sweep(cache):
        return run_sweep(
            barnes_hut,
            barnes_hut.BarnesHutParams(n_bodies=12, iterations=1),
            sizes=[1],
            total_processors=4,
            cache=cache,
        )

    cold = RunCache(tmp_path / "c")
    sweep_cold = sweep(cold)
    assert cold.stats.stores == len(sweep_cold.points) == 1
    warm = RunCache(tmp_path / "c")
    sweep_warm = sweep(warm)
    assert warm.stats.hits == 1
    assert warm.stats.misses == 0
    assert dataclasses.asdict(sweep_warm) == dataclasses.asdict(sweep_cold)


def test_incremental_sweep_simulates_only_the_new_point(tmp_path):
    cold = RunCache(tmp_path / "c")
    _sweep(cold, sizes=[1, 2])
    inc = RunCache(tmp_path / "c")
    sweep = _sweep(inc, sizes=[1, 2, 4])
    assert inc.stats.hits == 2
    assert inc.stats.misses == 1
    assert [p.cluster_size for p in sweep.points] == [1, 2, 4]


def test_source_change_invalidates_everything(tmp_path):
    cold = RunCache(tmp_path / "c")
    _sweep(cold)
    perturbed = RunCache(tmp_path / "c", source="a-different-source-tree")
    _sweep(perturbed)
    assert perturbed.stats.hits == 0
    assert perturbed.stats.misses == len(_sweep(False).points)


def test_corrupt_entry_is_a_miss_and_heals(tmp_path):
    cold = RunCache(tmp_path / "c")
    sweep_cold = _sweep(cold)
    victim = _entry_files(tmp_path / "c")[0]
    victim.write_text("{not json")
    warm = RunCache(tmp_path / "c")
    sweep_warm = _sweep(warm)
    assert warm.stats.misses == 1
    assert warm.stats.hits == len(sweep_cold.points) - 1
    assert warm.stats.stores == 1  # re-written
    assert dataclasses.asdict(sweep_warm) == dataclasses.asdict(sweep_cold)
    healed = RunCache(tmp_path / "c")
    _sweep(healed)
    assert healed.stats.misses == 0


def test_identical_keys_carry_identical_bytes(tmp_path):
    """Two stores putting one key write byte-identical entry files, even
    when the executions took different wall times."""
    key, preimage = fingerprint_run(
        MachineConfig(total_processors=4, cluster_size=2),
        CostModel(), 1500, "wl", None, source="fixed",
    )
    blobs = []
    for name, wall in (("a", 0.25), ("b", 4.0)):
        RunCache(tmp_path / name, source="fixed").put(
            key, preimage, {"payload": 1}, wall
        )
        blobs.append((tmp_path / name / key[:2] / f"{key}.json").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_cache_verify_passes_on_intact_cache(tmp_path):
    _sweep(RunCache(tmp_path / "c"))
    verify = RunCache(tmp_path / "c", verify_fraction=1.0)
    sweep = _sweep(verify, cache_verify=True)
    assert verify.stats.verified == len(sweep.points)


def test_cache_verify_fails_loudly_on_divergence(tmp_path):
    _sweep(RunCache(tmp_path / "c"))
    victim = _entry_files(tmp_path / "c")[0]
    entry = json.loads(victim.read_text())
    entry["run"]["result"]["total_time"] += 1
    victim.write_text(json.dumps(entry))
    verify = RunCache(tmp_path / "c", verify_fraction=1.0)
    with pytest.raises(CacheVerifyError, match="diverged"):
        _sweep(verify, cache_verify=True)


def test_verify_sample_is_deterministic_and_nonempty():
    cache = RunCache("unused", verify_fraction=0.25)
    assert cache.verify_sample(0) == []
    assert cache.verify_sample(1) == [0]
    assert cache.verify_sample(8) == [0, 4]
    full = RunCache("unused", verify_fraction=1.0)
    assert full.verify_sample(3) == [0, 1, 2]


# ---------------------------------------------------------------------------
# activation, estimates, reporting
# ---------------------------------------------------------------------------


def test_resolve_cache_env_activation(tmp_path, monkeypatch):
    def resolved(cache=None):
        return resolve_cache(cache, RunOptions.from_env())

    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert resolved() is None
    assert resolved(False) is None
    assert resolved(True).root == Path(DEFAULT_CACHE_DIR)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    cache = resolved()
    assert cache is not None
    assert cache.root == tmp_path / "envcache"

    monkeypatch.setenv("REPRO_CACHE", "0")  # explicit off wins over the dir
    assert resolved() is None

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert resolved() is not None

    passthrough = RunCache(tmp_path / "x")
    assert resolved(passthrough) is passthrough


def test_estimates_feed_cost_aware_scheduling(tmp_path):
    cold = RunCache(tmp_path / "c")
    _sweep(cold)
    fresh = RunCache(tmp_path / "c")
    exact = fresh.estimate_seconds("repro.apps.jacobi", 2)
    assert exact is not None and exact >= 0.0
    # unknown cluster size falls back to the workload mean
    assert fresh.estimate_seconds("repro.apps.jacobi", 64) is not None
    # unknown workload has no estimate (scheduler runs it first)
    assert fresh.estimate_seconds("repro.apps.nonesuch", 2) is None


def test_estimates_are_indexed_per_engine(tmp_path):
    """The wall-time LJF index keeps working with several engines in one
    store: exact per-engine estimates first, any-engine fallback after."""
    root = tmp_path / "c"
    _sweep(RunCache(root))
    _sweep(RunCache(root), protocol="swdsm")
    fresh = RunCache(root)
    assert fresh.estimate_seconds("repro.apps.jacobi", 2, "mgs") is not None
    assert fresh.estimate_seconds("repro.apps.jacobi", 2, "swdsm") is not None
    # an engine with no recorded points falls back to any-engine timings
    # (better than scheduling blind), an unknown workload stays unknown
    assert fresh.estimate_seconds("repro.apps.jacobi", 2, "gcs") is not None
    assert fresh.estimate_seconds("repro.apps.nonesuch", 2, "gcs") is None


def test_summary_counters_are_exported(tmp_path):
    cache = RunCache(tmp_path / "c")
    _sweep(cache)
    d = cache.summary()
    assert d["misses"] == cache.stats.misses > 0
    assert d["bytes_written"] > 0
    assert d["dir"] == str(tmp_path / "c")


def test_cli_cache_flags(tmp_path, capsys):
    from repro.cli import main

    cache_dir = str(tmp_path / "cli")
    assert main(["sweep", "jacobi", "--processors", "4", "--cache-dir",
                 cache_dir]) == 0
    out = capsys.readouterr().out
    assert "run cache" in out and "3 misses" in out
    assert main(["sweep", "jacobi", "--processors", "4", "--cache-dir",
                 cache_dir, "--cache-verify"]) == 0
    out = capsys.readouterr().out
    assert "3 hits" in out and "verified" in out


# ---------------------------------------------------------------------------
# concurrent use of one store (the repro.serve daemon's deployment shape)
# ---------------------------------------------------------------------------


def _hammer_store(root, worker, n_keys):
    """Store n_keys entries (some shared across workers) into one root."""
    cache = RunCache(root, source="fixed")
    for i in range(n_keys):
        # Even keys collide across workers (same preimage -> same key,
        # same bytes); odd keys are worker-private.
        tag = i if i % 2 == 0 else (worker, i)
        key, preimage = fingerprint_run(
            MachineConfig(total_processors=4, cluster_size=2),
            CostModel(),
            1500,
            f"wl-{tag}",
            None,
            source="fixed",
        )
        cache.put(key, preimage, {"payload": [worker, i]}, 0.01 * (i + 1))
    return cache.stats.stores


def test_two_processes_share_one_cache_dir(tmp_path):
    # The serve daemon plus a CLI run (or two daemons) writing the same
    # REPRO_CACHE_DIR concurrently: no torn entries, and the wall-time
    # index keeps every writer's records (read-merge-write under flock).
    import multiprocessing as mp

    root = tmp_path / "shared"
    n_keys = 24
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                         else None)
    with ctx.Pool(2) as pool:
        stores = pool.starmap(
            _hammer_store, [(root, 0, n_keys), (root, 1, n_keys)]
        )
    assert stores == [n_keys, n_keys]

    # every entry file is intact, schema-valid JSON
    files = _entry_files(root)
    seen = set()
    for path in files:
        entry = json.loads(path.read_text())
        assert entry["key"] == path.stem
        seen.add(entry["fingerprint"]["workload"])
    # 12 shared workloads + 12 private ones per worker
    assert len(files) == n_keys // 2 + 2 * (n_keys // 2)

    # the index retained one record per distinct key from BOTH workers
    index = json.loads((root / "index.json").read_text())
    assert len(index["entries"]) == len(files)
    # and no temporary files leaked
    assert not list(root.rglob("*.tmp.*"))

    # a fresh instance schedules from the merged index
    reader = RunCache(root, source="fixed")
    assert reader.estimate_seconds("wl-0", 2) == pytest.approx(0.01)


def test_threads_sharing_one_runcache_do_not_tear(tmp_path):
    import threading

    root = tmp_path / "threaded"
    cache = RunCache(root, source="fixed")
    key, preimage = fingerprint_run(
        MachineConfig(total_processors=4, cluster_size=2),
        CostModel(), 1500, "wl-contended", None, source="fixed",
    )
    barrier = threading.Barrier(4)

    def writer():
        barrier.wait()
        for _ in range(10):
            cache.put(key, preimage, {"payload": "identical"}, 0.5)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    entry = json.loads((root / key[:2] / f"{key}.json").read_text())
    assert entry["run"] == {"payload": "identical"}
    assert cache.stats.stores == 40
    assert not list(root.rglob("*.tmp.*"))
