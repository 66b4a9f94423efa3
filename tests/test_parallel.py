"""The parallel sweep runner changes wall-clock, never results."""

import dataclasses
import os

import pytest

from repro.apps import jacobi, scanphase
from repro.bench import RunCache, parallel_map, resolve_jobs, run_sweep
from repro.bench import parallel as par
from repro.runtime import RunOptions

SCAN = scanphase.ScanPhaseParams(words=256, phases=6, window=16)


# Worker functions must be module-level: the persistent pool's workers
# resolve submitted functions by qualified name.
def _negate(x):
    return -x


def _maybe_boom(x):
    if x < 0:
        raise ValueError(f"boom {x}")
    return x * 10


def _scanphase_replayed(options):
    """One scanphase point in this process: (pid, phases replayed)."""
    from repro.params import MachineConfig

    run = scanphase.run(
        MachineConfig(total_processors=4, cluster_size=2), SCAN, options=options
    )
    assert run.valid
    return os.getpid(), run.result.replay_cache.get("replayed", 0)


# ---------------------------------------------------------------------------
# resolve_jobs
# ---------------------------------------------------------------------------


def test_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(None) == 1


def test_explicit_argument_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_env_var_supplies_the_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3


def test_zero_means_all_cores(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_malformed_env_warns_and_runs_serial(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert resolve_jobs() == 1


# ---------------------------------------------------------------------------
# parallel_map
# ---------------------------------------------------------------------------


def test_parallel_map_serial_path_preserves_order():
    assert parallel_map(abs, [(-1,), (2,), (-3,)], jobs=1) == [1, 2, 3]


def test_parallel_map_workers_preserve_order():
    # `abs` is a picklable builtin, so this exercises real subprocesses.
    assert parallel_map(abs, [(-1,), (2,), (-3,), (-4,)], jobs=2) == [1, 2, 3, 4]


def test_parallel_map_single_item_stays_in_process():
    calls = []

    def local(x):  # unpicklable closure: proves no pool was spawned
        calls.append(x)
        return x * 10

    assert parallel_map(local, [(4,)], jobs=8) == [40]
    assert calls == [4]


def test_parallel_map_single_cpu_stays_in_process(monkeypatch):
    # Forking on a 1-core box is strictly slower (the committed perf
    # baseline shows 0.178s parallel vs 0.150s serial); parallel_map
    # must fall back to the plain loop.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    calls = []

    def local(x):  # unpicklable closure: proves no pool was spawned
        calls.append(x)
        return -x

    assert parallel_map(local, [(1,), (2,), (3,)], jobs=4) == [-1, -2, -3]
    assert calls == [1, 2, 3]


# ---------------------------------------------------------------------------
# the persistent pool
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_pool(monkeypatch):
    """Pretend to be multi-core and start from (and leave behind) no pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    par.shutdown_pool()
    yield
    par.shutdown_pool()


def test_pool_persists_across_calls(fresh_pool):
    assert parallel_map(_negate, [(1,), (2,)], jobs=2) == [-1, -2]
    first = par._POOL
    assert first is not None
    assert parallel_map(_negate, [(3,), (4,)], jobs=2) == [-3, -4]
    assert par._POOL is first  # reused, not re-forked


def test_pool_grows_but_never_shrinks(fresh_pool):
    parallel_map(_negate, [(1,), (2,)], jobs=2)
    assert par._POOL_WORKERS == 2
    parallel_map(_negate, [(1,), (2,), (3,)], jobs=3)
    grown = par._POOL
    assert par._POOL_WORKERS == 3
    # A smaller request is windowed onto the big pool, not a shrink.
    parallel_map(_negate, [(1,), (2,)], jobs=2)
    assert par._POOL is grown
    assert par._POOL_WORKERS == 3


def _scan_sweep(options=None):
    return run_sweep(
        scanphase,
        params=SCAN,
        total_processors=4,
        jobs=2,
        cache=False,
        options=options,
    )


def test_workers_follow_the_parent_environment(
    fresh_pool, monkeypatch, worker_replay_settings
):
    """Settings changed in the parent after the pool forked reach every
    later job: ``options=None`` resolves in the parent, per call."""
    monkeypatch.delenv("REPRO_NO_REPLAY", raising=False)
    baseline = _scan_sweep()  # forks the pool with replay on
    assert par._POOL is not None
    seen = worker_replay_settings()
    assert seen and all(s == {"True"} for s in seen.values())

    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    assert dataclasses.asdict(_scan_sweep()) == dataclasses.asdict(baseline)
    seen = worker_replay_settings()
    assert seen and all(s == {"False"} for s in seen.values())


def test_pool_warmed_with_replay_off_honors_replay_on_jobs(fresh_pool):
    """Workers hold no settings of their own: a pool warmed with replay
    off replays phases in a later replay-on job, and back."""
    off, on = RunOptions(replay=False), RunOptions(replay=True)
    sweep = _scan_sweep(off)

    def replayed(options):
        points = parallel_map(_scanphase_replayed, [(options,)] * 2, jobs=2)
        assert os.getpid() not in {pid for pid, _ in points}
        return [n for _, n in points]

    assert replayed(off) == [0, 0]
    assert dataclasses.asdict(_scan_sweep(on)) == dataclasses.asdict(sweep)
    assert all(n > 0 for n in replayed(on))
    assert replayed(off) == [0, 0]  # back off: the same workers replay nothing


def test_errors_raise_lowest_input_index(fresh_pool):
    with pytest.raises(ValueError, match="boom -2"):
        parallel_map(
            _maybe_boom, [(1,), (-2,), (3,), (-4,)], jobs=2
        )
    # An ordinary job exception must not poison the pool.
    assert parallel_map(_maybe_boom, [(5,), (6,)], jobs=2) == [50, 60]


def test_shutdown_pool_is_idempotent(fresh_pool):
    parallel_map(_negate, [(1,), (2,)], jobs=2)
    par.shutdown_pool()
    assert par._POOL is None
    par.shutdown_pool()  # second call is a no-op
    assert parallel_map(_negate, [(7,), (8,)], jobs=2) == [-7, -8]


def test_single_cpu_fallback_prints_one_notice(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(par, "_WARNED_SINGLE_CPU", False)
    parallel_map(_negate, [(1,), (2,)], jobs=4)
    err = capsys.readouterr().err
    assert "single-CPU machine" in err and "jobs=4" in err
    parallel_map(_negate, [(1,), (2,)], jobs=4)
    assert "single-CPU" not in capsys.readouterr().err  # once per process


def test_single_cpu_notice_not_printed_for_serial_requests(
    monkeypatch, capsys
):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(par, "_WARNED_SINGLE_CPU", False)
    parallel_map(_negate, [(1,), (2,)], jobs=1)
    parallel_map(_negate, [(1,)], jobs=4)
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# sweeps: serial and parallel are byte-identical
# ---------------------------------------------------------------------------


def _tiny_params():
    return jacobi.JacobiParams(n=16, iterations=2)


#: cache mode -> (hits, misses, stores, verified) of each jacobi sweep
#: over C = 1, 2, 4; under verify every other hit re-executes, starting
#: with the first
SWEEP_COUNTERS = {
    "off": None,
    "cold": (0, 3, 3, 0),
    "warm-verify": (3, 0, 0, 2),
}


def test_run_sweep_parallel_matches_serial(fresh_pool, tmp_path):
    """One sweep path: identical sweeps at any job count, with the run
    cache off, cold, or warm under verify."""
    warm = tmp_path / "warm"
    run_sweep(jacobi, params=_tiny_params(), total_processors=4,
              cache=RunCache(warm))
    sweeps = []
    for mode, counters in SWEEP_COUNTERS.items():
        for jobs in (1, 2):
            cache = None
            if mode != "off":
                root = warm if mode == "warm-verify" else tmp_path / f"cold{jobs}"
                cache = RunCache(root, verify_fraction=0.5)
            sweep = run_sweep(
                jacobi, params=_tiny_params(), total_processors=4, jobs=jobs,
                cache=cache or False, cache_verify=mode == "warm-verify",
            )
            sweeps.append(dataclasses.asdict(sweep))
            if cache is not None:
                s = cache.stats
                assert (s.hits, s.misses, s.stores, s.verified) == counters, mode
    assert all(sweep == sweeps[0] for sweep in sweeps)
