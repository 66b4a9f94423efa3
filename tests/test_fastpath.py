"""The fast-path access engine is invisible except for wall-clock.

``Env`` has one ``read``, ``write`` and ``read_many`` body, and binds
``read_block``/``write_block`` to either their line walk or loops of
the per-word body, depending on ``RunOptions.fastpath``.  These tests
pin the contract:

* the block APIs and ``read_many`` charge exactly the same cycles as
  the equivalent loop of single-word accesses (same thread clocks,
  same cache and protocol stats, same simulator event count);
* fast and slow paths are bit-for-bit identical, including across
  faults and quantum pauses that land mid-block, on every word of a
  line, on a block's first word, and on software-serviced lines;
* the quantum boundary is strict (> quantum pauses, == quantum does
  not) in both modes;
* ``REPRO_NO_FASTPATH`` disables the fast paths of a runtime built
  without explicit options.
"""

import pytest

from repro.params import WORD_BYTES, CostModel, MachineConfig
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
# the block walker's edges: each shape runs once through the block
# operations and once as per-word loops
# ---------------------------------------------------------------------------

#: words per page, and the charge of an array word that hits
_WPP = MachineConfig().words_per_page
_WHIT = CostModel().translate_array + CostModel().cache_hit


def _words_in(env, addr, n, block):
    if block:
        return (yield from env.read_block(addr, n))
    vals = []
    for w in range(n):
        vals.append((yield from env.read(addr + w * WORD_BYTES)))
    return vals


def _words_out(env, addr, values, block):
    if block:
        yield from env.write_block(addr, values)
    else:
        for w, value in enumerate(values):
            yield from env.write(addr + w * WORD_BYTES, value)


def _shape(body):
    """``(block shape, loop shape)`` factories of one worker body."""

    def factory(block):
        def make(arr, nwords, captured):
            def worker(env):
                yield from body(env, arr, captured, block)

            return worker

        return make

    return factory(True), factory(False)


def _straddle(env, arr, captured, block):
    # Starts on a line's second word and ends mid-line on the next page;
    # between passes one processor rewrites words either side of the
    # page boundary, so later passes miss where it wrote.
    base = arr.addr(_WPP - 37)
    for rnd in range(3):
        vals = yield from _words_in(env, base, 75, block)
        captured.append((env.pid, rnd, vals))
        yield from env.barrier()
        if env.pid == rnd:
            yield from _words_out(env, arr.addr(_WPP - 3), [-1.0 - rnd] * 5, block)
        yield from env.barrier()


def _first_word_crosses(env, arr, captured, block, quantum=1500):
    # In each SSMP one processor reads a region while the other writes
    # it, each block starting with less budget left than a hit word
    # costs, so its first word crosses the quantum.  The writer starts
    # on alternate lines, so the reader's first word alternately misses
    # and hits.  Where each crossing word is read or stored, before or
    # after the pause, decides what the reader sees.
    region = arr.addr((env.pid // 2) * _WPP + 1)
    odd = env.pid % 2
    for lead in (0, 7, 19):
        for wlead in (0, 7, 12, 19):
            yield from env.barrier()
            yield from env.compute(quantum - (wlead if odd else lead))
            if odd:
                start = region + wlead % 2 * WORD_BYTES
                yield from _words_out(env, start, [float(lead + wlead)] * 9, block)
            else:
                vals = yield from _words_in(env, region, 9, block)
                captured.append((env.pid, lead, wlead, vals))
    yield from env.barrier()


def _pause_phases(env, arr, captured, block, quantum=1500):
    # In each SSMP one processor reads an 8-word region right after a
    # barrier with budget ``left`` while the other rewrites lines 1 and
    # 3 of it.  Sweeping ``left`` over four lines' worth of hits plus a
    # miss lands the reader's pause on every word, among them the last
    # word of a hit line and the first word of a missing line, and moves
    # it past the writer's pause.
    region = arr.addr((env.pid // 2) * _WPP + 16)
    for left in range(0, 4 * 2 * _WHIT + 64, 3):
        yield from env.barrier()
        if env.pid % 2:
            yield from env.compute(quantum - 3 * _WHIT)
            for value in (left, -left):
                for w in (2, 6):
                    addr = region + w * WORD_BYTES
                    yield from _words_out(env, addr, [float(value)] * 2, block)
        else:
            yield from env.compute(quantum - left)
            vals = yield from _words_in(env, region, 8, block)
            captured.append((env.pid, left, vals))
    yield from env.barrier()


def _software_lines(env, arr, captured, block):
    # Eight processors of one SSMP read the same lines, so from the
    # sixth sharer on the hardware pointers overflow and misses are
    # software-serviced (both reads and the writes that follow).
    base = arr.addr(3)
    for rnd in range(3):
        vals = yield from _words_in(env, base, 40, block)
        captured.append((env.pid, rnd, vals))
        yield from env.barrier()
        if env.pid == rnd:
            yield from _words_out(env, base, [float(rnd)] * 40, block)
        yield from env.barrier()


def _write_over_held_lines(env, arr, captured, block, quantum=1500):
    # In each SSMP one processor holds lines 0-1 of a region shared and
    # the other holds lines 2-3 dirty; then both write_block the whole
    # region at once, invalidating or taking over each other's copies.
    # Both budgets are swept, one against the other, so the pauses land
    # throughout and in either order; the region is read back after.
    region = arr.addr((env.pid // 2) * _WPP + 40)
    odd = env.pid % 2
    for left in range(0, 4 * 2 * _WHIT + 64, 5):
        yield from env.barrier()
        if odd:
            yield from _words_out(env, region + 4 * WORD_BYTES, [-1.0] * 4, block)
        else:
            yield from _words_in(env, region, 4, block)
        yield from env.barrier()
        yield from env.compute(quantum - (left * 7 % 97 if odd else left))
        yield from _words_out(env, region, [float(env.pid + left)] * 8, block)
        yield from env.barrier()
        vals = yield from _words_in(env, region, 8, block)
        captured.append((env.pid, left, vals))


def _assert_timed(body, engine):
    """The budget-sweeping shapes run at C == P, where a barrier
    flushes nothing: every thread leaves it at the same cycle with a
    full quantum and its pages still mapped, so each budget lands its
    pause on a known word.  They run at C < P too, with faults."""
    for cluster in (4, 2):
        _assert_equivalent(*_shape(body), cluster=cluster, engine=engine)


def test_block_from_mid_line_across_a_page(engine):
    block, loop = _shape(_straddle)
    _assert_equivalent(block, loop, engine=engine)
    _assert_equivalent(block, loop, quantum=97, engine=engine)


def test_block_whose_first_word_crosses_the_quantum(engine):
    _assert_timed(_first_word_crosses, engine)


def test_block_pauses_on_every_word_of_hit_and_missing_lines(engine):
    _assert_timed(_pause_phases, engine)


def test_block_over_software_serviced_lines(engine):
    block, loop = _shape(_software_lines)
    for quantum in (1500, 97):
        _assert_equivalent(
            block, loop, quantum=quantum, total=16, cluster=8, engine=engine
        )


def test_write_block_over_lines_held_shared_or_dirty(engine):
    _assert_timed(_write_over_held_lines, engine)


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
    from repro.runtime.env import Env

    slow = _fresh_env(Runtime(_config(), options=RunOptions(fastpath=False)))
    fast = _fresh_env(Runtime(_config(), options=RunOptions(fastpath=True)))
    # read, write and read_many have one body in both modes...
    assert slow.read.__func__ is fast.read.__func__ is Env._read
    assert slow.write.__func__ is fast.write.__func__ is Env._write
    assert slow.read_many.__func__ is fast.read_many.__func__ is Env._read_many
    # ...and only the two block operations switch
    for name in ("read_block", "write_block"):
        assert getattr(slow, name).__func__ is getattr(Env, f"_{name}_slow")
        assert getattr(fast, name).__func__ is getattr(Env, f"_{name}_fast")


@pytest.mark.parametrize("fastpath", [True, False])
def test_race_detector_records_each_block_word_once(fastpath):
    # The batched operations fall back to the unwrapped per-word body;
    # going through env.read would record those words a second time.
    rt = Runtime(_config(), analysis="races", options=RunOptions(fastpath=fastpath))
    nwords = 64 * 4
    arr = rt.array("data", nwords)
    recorded = []
    on_read, on_write = rt.race_detector.on_read, rt.race_detector.on_write
    rt.race_detector.on_read = lambda *a: (recorded.append(a), on_read(*a))
    rt.race_detector.on_write = lambda *a: (recorded.append(a), on_write(*a))

    def worker(env):
        if env.pid == 0:
            yield from env.write_block(arr.addr(0), [1.0] * nwords)
            yield from env.read_block(arr.addr(0), nwords)
            yield from env.read_many([arr.addr(w) for w in range(0, nwords, 3)])

    rt.spawn_all(worker)
    rt.run()
    assert len(recorded) == 2 * nwords + len(range(0, nwords, 3))


# ---------------------------------------------------------------------------
# scalar workloads: the per-word paths are the same in both modes
# ---------------------------------------------------------------------------


#: bursts each scalar workload runs (one per over-quantum compute)
_BURSTS = 40


def _miss_heavy(arr, nwords, captured):
    """Jacobi's old shape: over-quantum compute between single fresh
    reads, so no burst reads a line twice."""

    def worker(env):
        for k in range(_BURSTS):
            yield from env.compute(1501)
            v = yield from env.read(arr.addr((env.pid * 64 + k) % nwords))
            captured.append(v)

    return worker


def _hit_heavy(arr, nwords, captured):
    """Repeats within every burst: all but the first read hit."""

    def worker(env):
        base = arr.addr(env.pid * 64)
        for _ in range(_BURSTS):
            for _ in range(4):
                v = yield from env.read(base)
            captured.append(v)
            yield from env.compute(1501)

    return worker


def _run_scalar(factory, *, fastpath, analysis=None):
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
    return run_state(rt, result), captured


def test_bypass_decision_is_cycle_invisible():
    """Miss- and hit-heavy scalar workloads, with and without the race
    detector, give identical machines and values in both modes."""
    for factory in (_miss_heavy, _hit_heavy):
        for analysis in (None, "races"):
            fast = _run_scalar(factory, fastpath=True, analysis=analysis)
            slow = _run_scalar(factory, fastpath=False, analysis=analysis)
            assert fast == slow, (factory.__name__, analysis)
