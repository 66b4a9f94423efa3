"""The fast-path access engine is invisible except for wall-clock.

``Env`` binds ``read``/``write``/``read_block``/``write_block``/
``read_many`` to either the fast or the slow implementations depending
on ``RunOptions.fastpath``.  These tests pin the contract:

* the block APIs and ``read_many`` charge exactly the same cycles as
  the equivalent loop of single-word accesses (same thread clocks,
  same cache and protocol stats, same simulator event count);
* fast and slow paths are bit-for-bit identical, including across
  faults and quantum pauses that land mid-block;
* the quantum boundary is strict (> quantum pauses, == quantum does
  not) in both modes;
* ``REPRO_NO_FASTPATH`` disables the fast paths of a runtime built
  without explicit options.
"""

import pytest

from repro.params import WORD_BYTES, MachineConfig
from repro.runtime import RunOptions, Runtime
from tests.machine_state import run_state


def _config(total=4, cluster=2, engine="mgs"):
    return MachineConfig(total_processors=total, cluster_size=cluster, protocol=engine)


def _run(worker_factory, *, fastpath, quantum=1500, total=4, cluster=2, engine="mgs"):
    """Run one workload; returns (state, values captured by the workers)."""
    rt = Runtime(
        _config(total, cluster, engine),
        quantum=quantum,
        options=RunOptions(fastpath=fastpath),
    )
    nwords = 64 * total
    arr = rt.array("data", nwords)
    arr.init([float(i) * 0.5 for i in range(nwords)])
    captured = []
    rt.spawn_all(worker_factory(arr, nwords, captured))
    result = rt.run()
    return run_state(rt, result), captured


def _assert_equivalent(
    worker_a, worker_b, quantum=1500, total=4, cluster=2, engine="mgs"
):
    """workers a and b must produce identical machines in all four modes."""
    states = {}
    values = {}
    for name, factory in (("a", worker_a), ("b", worker_b)):
        for fast in (True, False):
            states[name, fast], values[name, fast] = _run(
                factory,
                fastpath=fast,
                quantum=quantum,
                total=total,
                cluster=cluster,
                engine=engine,
            )
    baseline = states["a", True]
    base_values = values["a", True]
    for key, state in states.items():
        assert state == baseline, f"{key} diverged from (a, fastpath)"
        assert values[key] == base_values, f"{key} read different data"


# ---------------------------------------------------------------------------
# block/many APIs == loops of single-word accesses
# ---------------------------------------------------------------------------


def _reader_block(arr, nwords, captured):
    # Every processor streams someone else's stripe, so blocks cross
    # pages owned by remote clusters and fault mid-block.
    def worker(env):
        per = nwords // env.nprocs
        victim = (env.pid + 1) % env.nprocs
        base = arr.addr(victim * per)
        for _ in range(3):
            vals = yield from env.read_block(base, per)
            captured.append(vals)
        yield from env.barrier()

    return worker


def _reader_loop(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        victim = (env.pid + 1) % env.nprocs
        base = arr.addr(victim * per)
        for _ in range(3):
            vals = []
            for w in range(per):
                v = yield from env.read(base + w * WORD_BYTES)
                vals.append(v)
            captured.append(vals)
        yield from env.barrier()

    return worker


def test_read_block_equals_read_loop(engine):
    _assert_equivalent(_reader_block, _reader_loop, engine=engine)


def test_read_block_equals_read_loop_with_tiny_quantum(engine):
    # quantum 97 forces pauses inside nearly every block, exercising the
    # mid-run re-resolve path and the pause-then-append ordering.
    _assert_equivalent(_reader_block, _reader_loop, quantum=97, engine=engine)


def _many_strided(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        addrs = tuple(
            arr.addr((env.pid * per + 7 * k) % nwords) for k in range(per)
        )
        vals = yield from env.read_many(addrs)
        captured.append(vals)
        yield from env.barrier()

    return worker


def _many_as_loop(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        addrs = tuple(
            arr.addr((env.pid * per + 7 * k) % nwords) for k in range(per)
        )
        vals = []
        for a in addrs:
            v = yield from env.read(a)
            vals.append(v)
        captured.append(vals)
        yield from env.barrier()

    return worker


def test_read_many_equals_read_loop(engine):
    _assert_equivalent(_many_strided, _many_as_loop, engine=engine)
    _assert_equivalent(_many_strided, _many_as_loop, quantum=97, engine=engine)


def _writer_block(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        base = arr.addr(env.pid * per)
        values = [float(env.pid * 1000 + w) for w in range(per)]
        yield from env.write_block(base, values)
        yield from env.barrier()
        # read back a neighbour's stripe so the stores are observable
        victim = (env.pid + 1) % env.nprocs
        got = yield from env.read_block(arr.addr(victim * per), per)
        captured.append((env.pid, got))
        yield from env.barrier()

    return worker


def _writer_loop(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        base = arr.addr(env.pid * per)
        for w in range(per):
            yield from env.write(base + w * WORD_BYTES, float(env.pid * 1000 + w))
        yield from env.barrier()
        victim = (env.pid + 1) % env.nprocs
        got = []
        for w in range(per):
            v = yield from env.read(arr.addr(victim * per) + w * WORD_BYTES)
            got.append(v)
        captured.append((env.pid, got))
        yield from env.barrier()

    return worker


def test_write_block_equals_write_loop(engine):
    _assert_equivalent(_writer_block, _writer_loop, engine=engine)
    _assert_equivalent(_writer_block, _writer_loop, quantum=97, engine=engine)


def test_written_values_are_the_values_read_back(engine):
    _, captured = _run(_writer_block, fastpath=True, engine=engine)
    per = (64 * 4) // 4
    assert sorted(pid for pid, _ in captured) == [0, 1, 2, 3]
    for pid, got in captured:
        victim = (pid + 1) % 4
        assert got == [float(victim * 1000 + w) for w in range(per)]


# ---------------------------------------------------------------------------
# quantum boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fastpath", [True, False])
def test_compute_exactly_one_quantum_does_not_pause(fastpath):
    q = 1500

    def events_for(cycles):
        options = RunOptions(fastpath=fastpath)
        rt = Runtime(_config(total=1, cluster=1), quantum=q, options=options)

        def worker(env):
            yield from env.compute(cycles)

        rt.spawn(worker)
        rt.run()
        return rt.sim.events_processed

    at_quantum = events_for(q)
    # the boundary is strict: == quantum runs on, > quantum pauses once,
    # and the pause is exactly one extra resume event
    assert events_for(q - 1) == at_quantum
    assert events_for(q + 1) == at_quantum + 1


@pytest.mark.parametrize("fastpath", [True, False])
def test_pause_resets_the_quantum_budget(fastpath):
    q = 100

    def events_for(chunks):
        options = RunOptions(fastpath=fastpath)
        rt = Runtime(_config(total=1, cluster=1), quantum=q, options=options)

        def worker(env):
            for _ in range(chunks):
                yield from env.compute(q + 1)

        rt.spawn(worker)
        rt.run()
        return rt.sim.events_processed

    # each over-quantum chunk pauses exactly once
    assert events_for(4) == events_for(1) + 3


# ---------------------------------------------------------------------------
# the REPRO_NO_FASTPATH escape hatch
# ---------------------------------------------------------------------------


def test_fastpath_on_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    assert RunOptions().fastpath is True
    assert Runtime(_config()).options.fastpath is True


@pytest.mark.parametrize("value", ["1", "true", "YES", " 1 "])
def test_repro_no_fastpath_disables(monkeypatch, value):
    monkeypatch.setenv("REPRO_NO_FASTPATH", value)
    assert Runtime(_config()).options.fastpath is False
    assert _fresh_env(Runtime(_config())).fastpath is False


def test_repro_no_fastpath_unrecognised_values_keep_it_on(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "0")
    assert Runtime(_config()).options.fastpath is True
    monkeypatch.setenv("REPRO_NO_FASTPATH", "banana")
    with pytest.warns(RuntimeWarning, match="REPRO_NO_FASTPATH='banana'"):
        assert Runtime(_config()).options.fastpath is True


def _fresh_env(rt):
    from repro.runtime.env import Env
    from repro.runtime.thread import ThreadContext

    return Env(rt, ThreadContext(pid=0, gen=None))


def test_explicit_fastpath_argument_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    rt = Runtime(_config(), options=RunOptions(fastpath=True))
    assert _fresh_env(rt).fastpath is True


def test_env_binds_slow_methods_when_disabled():
    env = _fresh_env(Runtime(_config(), options=RunOptions(fastpath=False)))
    assert env.read.__func__ is env._read_slow.__func__
    assert env.read_block.__func__ is env._read_block_slow.__func__
    env2 = _fresh_env(Runtime(_config(), options=RunOptions(fastpath=True)))
    assert env2.read.__func__ is env2._read_fast.__func__


# ---------------------------------------------------------------------------
# adaptive bypass: miss-heavy loops fall back to the plain paths
# ---------------------------------------------------------------------------


from repro.core.engine import Protocol  # noqa: E402

#: the default sampling window (engines may override per-class)
_FP_SAMPLE_BURSTS = Protocol.fp_sample_bursts


def _miss_heavy(arr, nwords, captured):
    """Jacobi's shape: over-quantum compute between single fresh reads,
    so every burst ends before the burst caches can serve a repeat."""

    def worker(env):
        for k in range(_FP_SAMPLE_BURSTS + 8):
            yield from env.compute(1501)
            v = yield from env.read(arr.addr((env.pid * 64 + k) % nwords))
            captured.append(v)

    return worker


def _hit_heavy(arr, nwords, captured):
    """Repeats within every burst: the caches pay for themselves."""

    def worker(env):
        base = arr.addr(env.pid * 64)
        for _ in range(_FP_SAMPLE_BURSTS + 8):
            for _ in range(4):
                v = yield from env.read(base)
            captured.append(v)
            yield from env.compute(1501)

    return worker


def _run_and_collect_envs(factory, *, fastpath=True, analysis=None):
    rt = Runtime(
        _config(),
        quantum=1500,
        analysis=analysis,
        options=RunOptions(fastpath=fastpath),
    )
    nwords = 64 * 4
    arr = rt.array("data", nwords)
    arr.init([float(i) for i in range(nwords)])
    captured = []
    rt.spawn_all(factory(arr, nwords, captured))
    result = rt.run()
    return rt, run_state(rt, result)


def test_miss_heavy_workers_bypass_to_slow_paths():
    rt, _ = _run_and_collect_envs(_miss_heavy)
    assert rt.envs and all(e.fastpath_bypassed for e in rt.envs)
    # the demotion rebinds all five memory operations
    env = rt.envs[0]
    assert env.read.__func__ is env._read_slow.__func__
    assert env.write_block.__func__ is env._write_block_slow.__func__


def test_hit_heavy_workers_keep_the_fast_paths():
    rt, _ = _run_and_collect_envs(_hit_heavy)
    for env in rt.envs:
        assert env._fp_adaptive is False  # sampling did conclude...
        assert not env.fastpath_bypassed  # ...and kept the fast engine


def test_bypass_decision_is_cycle_invisible():
    _, fast = _run_and_collect_envs(_miss_heavy, fastpath=True)
    _, slow = _run_and_collect_envs(_miss_heavy, fastpath=False)
    assert fast == slow


def test_slow_mode_never_reports_bypass():
    rt, _ = _run_and_collect_envs(_miss_heavy, fastpath=False)
    assert not any(e.fastpath_bypassed for e in rt.envs)


def test_race_detector_disables_the_adaptive_sampler():
    # Rebinding over the detector's recording wrappers would silently
    # drop race coverage, so instrumented runs never demote.
    rt, _ = _run_and_collect_envs(_miss_heavy, analysis="races")
    assert rt.race_detector is not None
    for env in rt.envs:
        assert env._fp_adaptive is False
        assert not env.fastpath_bypassed


def test_jacobi_keeps_fast_paths_in_practice():
    # Jacobi's old per-point loop (one fresh read, then over-quantum
    # compute) left no per-burst reuse and its workers demoted — the
    # regression the bypass mechanism exists for, now pinned by the
    # synthetic _miss_heavy workload above.  The batched row kernel
    # reads whole rows per burst, so its workers must NOT demote: the
    # bypass sampler has to recognize the reuse the batching created.
    from repro.apps import jacobi
    from repro.runtime import Runtime as RT

    runtimes = []
    hook = runtimes.append
    RT.construction_hooks.append(hook)
    try:
        jacobi.run(_config(), jacobi.JacobiParams(n=16, iterations=3))
    finally:
        RT.construction_hooks.remove(hook)
    envs = [e for rt in runtimes for e in rt.envs]
    assert envs and not any(e.fastpath_bypassed for e in envs)
