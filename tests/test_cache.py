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

from repro.apps import jacobi, water_kernel
from repro.bench import sweep as sweep_mod
from repro.bench.cache import (
    CACHE_SCHEMA,
    DEFAULT_CACHE_DIR,
    CacheVerifyError,
    RunCache,
    app_run_to_dict,
    canonical_json,
    fingerprint_run,
    resolve_cache,
    source_fingerprint,
)
from repro.bench.sweep import run_sweep
from repro.core.engine import engine_names
from repro.params import CostModel, MachineConfig, NetworkConfig, ProtocolOptions
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


def test_key_digest_is_pinned():
    """The key of a fixed point: entries written before stay reachable."""
    config = MachineConfig(
        total_processors=4, cluster_size=2,
        network=NetworkConfig(drop_rate=0.1), protocol="swdsm",
    )
    key, _ = fingerprint_run(
        config, None, 1500, "repro.apps.jacobi", PARAMS, source="0" * 64
    )
    assert key == (
        "ea8cf2dbdfe83ef09ece9575acc89a602c5fb5843b1eed8c8227a222b0892487"
    )


def _asdict_preimage(config, costs, quantum, workload, params, source):
    """The key's preimage as ``dataclasses.asdict`` spells it."""
    if params is None:
        token = None
    elif dataclasses.is_dataclass(params):
        token = {
            "__dataclass__": type(params).__name__,
            "fields": dataclasses.asdict(params),
        }
    else:
        token = repr(params)
    return {
        "cache_schema": CACHE_SCHEMA,
        "source": source,
        "workload": workload,
        "params": token,
        "config": dataclasses.asdict(config),
        "costs": dataclasses.asdict(costs if costs is not None else CostModel()),
        "quantum": quantum,
    }


@pytest.mark.parametrize(
    "config",
    [
        MachineConfig(),
        MachineConfig(
            total_processors=8, cluster_size=2,
            network=NetworkConfig(drop_rate=0.1, dup_rate=0.05, fault_seed=3),
        ),
        MachineConfig(
            total_processors=8, cluster_size=4,
            network=NetworkConfig(external="bus", reliable=True, bus_bandwidth=2),
        ),
        MachineConfig(
            total_processors=8, cluster_size=8,
            options=ProtocolOptions(single_writer_opt=False, fast_read_clean=True),
        ),
    ],
    ids=["default", "lossy", "reliable", "options"],
)
@pytest.mark.parametrize(
    "params",
    [None, PARAMS, water_kernel.WaterKernelParams(optimized=0),
     ("not", "a", "dataclass")],
    ids=["none", "dataclass", "int-for-bool", "other"],
)
@pytest.mark.parametrize(
    "costs",
    [None, CostModel(), CostModel(cache_hit=2.0)],
    ids=["none", "default", "float-for-int"],
)
def test_preimage_text_is_the_asdict_preimage(config, params, costs):
    """The spliced preimage is ``canonical_json`` of the ``asdict`` one,
    also for fields equal to the default but of another type (2.0 == 2,
    0 == False), whose JSON differs."""
    for seen in (PARAMS, water_kernel.WaterKernelParams()):
        fingerprint_run(MachineConfig(), CostModel(), 1500, "w", seen, source="s")
    _, text = fingerprint_run(config, costs, 1500, "w", params, source="s")
    assert text == canonical_json(
        _asdict_preimage(config, costs, 1500, "w", params, "s")
    )


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
# the fold of a serialized AppRun
# ---------------------------------------------------------------------------


def test_live_fold_equals_the_fold_of_its_stored_payload():
    """A point folds the same from a live payload and from that payload
    after a trip through JSON, as a cache entry stores it."""
    config = MachineConfig(
        total_processors=4, cluster_size=2, network=NetworkConfig(drop_rate=0.1)
    )
    run = water_kernel.run(config, water_kernel.WaterKernelParams(n_molecules=8))
    payload = app_run_to_dict(run)
    stored = json.loads(json.dumps(payload))
    live = sweep_mod._fold_point(payload, config.cluster_size)
    cached = sweep_mod._fold_point(stored, config.cluster_size)
    assert canonical_json(dataclasses.asdict(cached)) == canonical_json(
        dataclasses.asdict(live)
    )
    assert live.breakdown == run.result.breakdown()
    assert live.lock_hit_ratio == run.result.lock_stats.hit_ratio
    assert live.lock_acquires == run.result.lock_stats.acquires > 0
    # and the stored form serializes back to the same bytes (the verify contract)
    assert canonical_json(stored) == canonical_json(payload)


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

    monkeypatch.setattr(sweep_mod, "_sweep_point", boom)
    warm = RunCache(tmp_path / "c")
    sweep_warm = _sweep(warm)
    assert warm.stats.hits == npoints
    assert warm.stats.misses == 0
    assert dataclasses.asdict(sweep_warm) == dataclasses.asdict(sweep_cold)


@pytest.mark.parametrize(
    "machine",
    [{"protocol": name} for name in engine_names()]
    + [{"protocol": "mgs", "network": NetworkConfig(drop_rate=0.1)}],
    ids=[*engine_names(), "mgs-lossy"],
)
def test_hits_decode_against_the_requested_config(tmp_path, machine):
    """An entry's preimage holds the requested config and its run holds
    none, so a hit takes the requested one; the warm sweep equals the
    cold one."""
    kw = dict(sizes=[1, 2], overrides=machine)
    cold = _sweep(RunCache(tmp_path / "c"), **kw)
    entries = [json.loads(p.read_text()) for p in _entry_files(tmp_path / "c")]
    requested = {
        c: dataclasses.asdict(
            MachineConfig(total_processors=4, cluster_size=c, **machine)
        )
        for c in (1, 2)
    }
    stored = {}
    for entry in entries:
        config = json.loads(entry["fingerprint"])["config"]
        stored[config["cluster_size"]] = config
        assert "config" not in entry["run"]["result"]
    assert stored == requested
    warm_cache = RunCache(tmp_path / "c")
    warm = _sweep(warm_cache, **kw)
    assert warm_cache.stats.hits == 2
    assert dataclasses.asdict(warm) == dataclasses.asdict(cold)


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


@pytest.mark.parametrize("corrupt", [
    lambda run: run.clear(),
    lambda run: run["result"].pop("threads"),
    lambda run: run["result"]["threads"].append(run["result"]["threads"][0][:3]),
], ids=["run-empty", "result-without-threads", "short-thread-row"])
def test_an_entry_the_fold_cannot_read_is_a_miss_and_heals(tmp_path, corrupt):
    """An entry of the right JSON types that lacks what the fold reads
    (a ``KeyError``, ``TypeError`` or ``IndexError`` while folding the
    hit) is simulated again and rewritten."""
    live = _sweep(False, sizes=[1, 2])
    _sweep(RunCache(tmp_path / "c"), sizes=[1, 2])
    victim = _entry_files(tmp_path / "c")[0]
    entry = json.loads(victim.read_text())
    corrupt(entry["run"])
    victim.write_text(json.dumps(entry))

    warm = RunCache(tmp_path / "c")
    assert dataclasses.asdict(_sweep(warm, sizes=[1, 2])) == dataclasses.asdict(live)
    assert (warm.stats.hits, warm.stats.misses, warm.stats.stores) == (1, 1, 1)
    healed = RunCache(tmp_path / "c")
    _sweep(healed, sizes=[1, 2])
    assert (healed.stats.hits, healed.stats.misses) == (2, 0)


@pytest.mark.parametrize(
    "field", ["fingerprint", "run"],
    ids=["fingerprint-not-a-string", "run-not-an-object"],
)
def test_a_field_of_another_json_type_is_a_miss_and_heals(tmp_path, field):
    """``fingerprint`` must be a string and ``run`` an object; the next
    put rewrites an entry whose field is neither."""
    key, preimage = fingerprint_run(
        MachineConfig(total_processors=4, cluster_size=2),
        CostModel(), 1500, "wl", None, source="fixed",
    )
    RunCache(tmp_path, source="fixed").put(key, preimage, {"payload": 1})
    (path,) = _entry_files(tmp_path)
    good = path.read_bytes()
    entry = json.loads(good)
    # the preimage parsed into an object, or a run written as text
    entry[field] = {"fingerprint": json.loads(preimage), "run": preimage}[field]
    path.write_text(json.dumps(entry))

    cache = RunCache(tmp_path, source="fixed")
    assert cache.get(key) is None
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    cache.put(key, preimage, {"payload": 1})
    assert path.read_bytes() == good
    assert RunCache(tmp_path, source="fixed").get(key) is not None


def test_identical_keys_carry_identical_bytes(tmp_path):
    """Two stores putting one key write byte-identical entry files."""
    key, preimage = fingerprint_run(
        MachineConfig(total_processors=4, cluster_size=2),
        CostModel(), 1500, "wl", None, source="fixed",
    )
    blobs = []
    for name in ("a", "b"):
        RunCache(tmp_path / name, source="fixed").put(key, preimage, {"payload": 1})
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
    c = json.loads(entry["fingerprint"])["config"]["cluster_size"]
    verify = RunCache(tmp_path / "c", verify_fraction=1.0)
    with pytest.raises(
        CacheVerifyError, match=rf"of repro\.apps\.jacobi \(C={c}\) diverged"
    ):
        _sweep(verify, cache_verify=True)


def test_verify_sample_is_deterministic_and_nonempty():
    cache = RunCache("unused", verify_fraction=0.25)
    assert cache.verify_sample(0) == []
    assert cache.verify_sample(1) == [0]
    assert cache.verify_sample(8) == [0, 4]
    full = RunCache("unused", verify_fraction=1.0)
    assert full.verify_sample(3) == [0, 1, 2]


# ---------------------------------------------------------------------------
# activation, reporting
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


def test_figure_cli_sweep_and_serve_share_one_identity(tmp_path, capsys):
    """A figure, a bare ``repro sweep`` and a bare serve request simulate
    the same points, so after the first the other two simulate nothing."""
    from repro.bench.figures import run_figure
    from repro.cli import main
    from repro.serve.jobs import JobQueue, execute_job
    from repro.serve.validate import validate_request

    cache_dir = tmp_path / "shared"
    cold = RunCache(cache_dir)
    run_figure("fig6", 4, cache=cold, options=RunOptions())
    assert cold.stats.misses == 3
    capsys.readouterr()

    assert main(["sweep", "jacobi", "--processors", "4", "--cache-dir",
                 str(cache_dir)]) == 0
    assert "3 hits, 0 misses" in capsys.readouterr().out

    queue = JobQueue(cache_dir)
    job, _ = queue.submit(
        validate_request({"workload": "jacobi", "total_processors": 4}), "cli"
    )
    queue.take_next(0)
    execute_job(job)
    assert job.cache.stats.hits == 3 and job.cache.stats.misses == 0


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
        cache.put(key, preimage, {"payload": [worker, i]})
    return cache.stats.stores


def test_two_processes_share_one_cache_dir(tmp_path):
    # The serve daemon plus a CLI run (or two daemons) writing the same
    # REPRO_CACHE_DIR concurrently: no torn entries, every key present,
    # no temporary files left behind.
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
        seen.add(json.loads(entry["fingerprint"])["workload"])
    # 12 shared workloads + 12 private ones per worker
    assert len(files) == n_keys // 2 + 2 * (n_keys // 2)
    # and no temporary files leaked
    assert not list(root.rglob("*.tmp.*"))


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
            cache.put(key, preimage, {"payload": "identical"})

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    entry = json.loads((root / key[:2] / f"{key}.json").read_text())
    assert entry["run"] == {"payload": "identical"}
    assert cache.stats.stores == 40
    assert not list(root.rglob("*.tmp.*"))
