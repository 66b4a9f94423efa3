"""The programming environment simulated application threads run against.

Application code is written as Python generators; every potentially
blocking operation is a sub-generator used with ``yield from``:

.. code-block:: python

    def worker(env):
        value = yield from env.read(array.addr(i))
        yield from env.write(array.addr(j), value + 1.0)
        values = yield from env.read_block(array.addr(k), 16)
        yield from env.lock(lk)
        ...
        yield from env.unlock(lk)
        yield from env.barrier()

Reads and writes that hit in the TLB and hardware cache are charged to
the thread's local clock without touching the global event queue; only
mapping faults, synchronization, and quantum expiry suspend the thread.
This mirrors the real system, where hardware shared memory needs no
software intervention and only TLB faults enter the MGS protocol.

At cluster size C == P (``hardware_only``), MGS calls are nulled exactly
as in the paper's 32-processor runs: accesses go straight to the home
copy through hardware coherence, only the software-virtual-memory
translation overhead remains, and release points flush nothing.

Access paths
------------

Word accesses dominate simulation wall-clock, so each per-word
operation is one lean body that probes the machine's state directly: the
processor's TLB map, the frame's page array and owner (the home copy at
C == P), and the cluster's hardware line directory, whose hit test it
repeats inline so that it calls :meth:`CacheSystem.access` only on a
miss.  Nothing is kept between operations, so a suspension point (fault,
pause, lock, unlock, barrier) leaves nothing stale behind.  The word
that pauses returns its value from the page array it read before the
pause, because the frame's data may be replaced while the thread waits.

Batches
-------

``read_many`` is an inlined loop of the per-word read.  ``read_block``
and ``write_block`` walk each page in line runs: a run of guaranteed
hits is charged in closed form after one :meth:`CacheSystem.hit_run`
probe, and a run of misses goes to one :meth:`CacheSystem.access_run`
call (:meth:`Env._miss_run`).  They re-probe the TLB at every page chunk
and after every pause.  ``RunOptions(fastpath=False)`` (or
``REPRO_NO_FASTPATH=1``) turns only these three batched operations into
plain loops of the per-word body, the reference they are pinned against
bit for bit (``tests/test_fastpath.py``,
``tests/test_golden_equivalence.py``).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.params import WORD_BYTES
from repro.svm import MapMode

if TYPE_CHECKING:
    from repro.runtime.runner import Runtime
    from repro.runtime.thread import ThreadContext
    from repro.sync import MGSLock

__all__ = ["Env"]

_WRITE = MapMode.WRITE


class Env:
    """Per-thread view of the machine.

    ``read`` and ``write`` have one implementation each.  The batched
    operations (``read_block``, ``write_block``, ``read_many``) are bound
    per instance: to their batched implementations normally, or to plain
    loops of the per-word body when the runtime's options say
    ``fastpath=False`` (e.g. via the ``REPRO_NO_FASTPATH=1`` escape
    hatch).  Both produce bit-for-bit identical simulations.
    """

    __slots__ = (
        "_rt",
        "_t",
        "pid",
        "cluster",
        "nprocs",
        "_page_size",
        "_line_size",
        "_quantum",
        "_hw_only",
        "_protocol",
        "_cache",
        "_cache_counts",
        "_hit_cost",
        "_tlb",
        "_maps",
        "_lines",
        "_frames",
        "_home_pids",
        "_costs",
        "_ta",
        "_tp",
        # per-instance bindings (the race detector wraps all five)
        "read",
        "write",
        "read_block",
        "write_block",
        "read_many",
    )

    #: Nothing demotes an Env to other access paths any more; the flag
    #: stays False for the performance ledger, which still counts it.
    fastpath_bypassed = False

    def __init__(self, runtime: "Runtime", thread: "ThreadContext") -> None:
        self._rt = runtime
        self._t = thread
        self.pid = thread.pid
        config = runtime.config
        self.cluster = config.cluster_of(self.pid)
        self.nprocs = config.total_processors
        self._page_size = config.page_size
        self._line_size = config.line_size
        self._quantum = runtime.quantum
        self._hw_only = runtime.protocol.hw_bypass
        self._protocol = runtime.protocol
        self._cache = runtime.cache
        self._cache_counts = runtime.cache._counts  # slot 0 counts hits
        self._hit_cost = runtime.cache.hit_cost
        self._tlb = runtime.protocol.tlbs[self.pid]
        # Probed in place by the access paths: the TLB's vpn -> MapMode
        # map and this cluster's line directory (line -> [owner, mask]).
        self._maps = self._tlb._entries
        self._lines = runtime.cache._lines[self.cluster]
        self._frames = runtime.protocol.frames_view(self.pid)
        self._home_pids = runtime.aspace.home_pids
        self._costs = runtime.costs
        self._ta = self._costs.translate_array
        self._tp = self._costs.translate_pointer
        self.read = self._read
        self.write = self._write
        if runtime.options.fastpath:
            self.read_block = self._read_block_fast
            self.write_block = self._write_block_fast
            self.read_many = self._read_many_fast
        else:
            self.read_block = self._read_block_slow
            self.write_block = self._write_block_slow
            self.read_many = self._read_many_slow
        detector = runtime.race_detector
        if detector is not None:
            # Opt-in happens-before race detection (repro.analysis):
            # rebinds the five operations to recording wrappers that
            # delegate to the originals unchanged and charge nothing.
            detector.instrument(self)

    def close(self) -> None:
        """Cut this finished Env's reference cycles (see
        :meth:`Runtime.close`): the Runtime points back at it, and the
        five memory operations are bound methods of the Env itself."""
        self._rt = None
        self.read = self.write = self.read_block = self.write_block = None
        self.read_many = None

    # ------------------------------------------------------------------
    # page resolution
    # ------------------------------------------------------------------

    def _map(self, vpn: int, write: bool):
        """Get ``vpn`` mapped with read (or, if ``write``, write)
        privilege, yielding mapping faults until the protocol grants it.

        At C == P only the software-virtual-memory overhead remains: the
        first access to a page charges a one-time fill instead.
        """
        maps = self._maps
        if self._hw_only:
            if vpn not in maps:
                costs = self._costs
                self._t.charge_user(costs.fault_overhead + costs.map_fill)
                self._tlb.fill(vpn, MapMode.WRITE)
            return
        while (maps.get(vpn) != _WRITE) if write else (vpn not in maps):
            yield ("fault", vpn, write)

    def _page(self, vpn: int) -> tuple:
        """``(page array, owner pid)`` of a mapped page: the processor's
        frame, or the home copy at C == P."""
        if self._hw_only:
            return self._protocol.home(vpn).data, self._home_pids[vpn]
        frame = self._frames[vpn]
        return frame.data, frame.owner_pid

    def _miss_run(self, addr, chunk_end, write, owner, tcost, budget):
        """Service a run of missing lines from ``addr`` in one
        :meth:`CacheSystem.access_run` call.

        ``addr`` lies on one mapped page, and the run may extend to
        ``chunk_end``.  Each line carries its translate charge plus its
        remaining words' hit charge, and ``access_run`` admits lines
        only while that stays within ``budget``, so no quantum pause can
        fall inside the run.  Counts the hit words and returns
        ``(words, charge)`` for the caller to charge and move data for —
        ``(0, 0)`` when not even the first line fits.
        """
        line_size = self._line_size
        line = addr // line_size
        last = (chunk_end - 1) // line_size
        whit = tcost + self._hit_cost
        # Every line but the first and last is whole.
        extras = [tcost + (line_size // WORD_BYTES - 1) * whit] * (last - line + 1)
        extras[0] -= (addr - line * line_size) // WORD_BYTES * whit
        extras[-1] -= ((last + 1) * line_size - chunk_end) // WORD_BYTES * whit
        k, charge = self._cache.access_run(
            self.cluster, self.pid, line, write, owner, extras, budget
        )
        if not k:
            return 0, 0
        run_end = (line + k) * line_size
        if run_end > chunk_end:
            run_end = chunk_end
        m = (run_end - addr) // WORD_BYTES
        self._cache_counts[0] += m - k
        return m, charge

    # ------------------------------------------------------------------
    # memory operations
    # ------------------------------------------------------------------

    def _read(self, addr: int, ptr: bool = False):
        """Load one shared word.  Usage: ``v = yield from env.read(a)``."""
        t = self._t
        cost = self._tp if ptr else self._ta
        vpn = addr // self._page_size
        if vpn not in self._maps:
            # The translation is charged before the fault is taken.
            t.time += cost
            t.user += cost
            cost = 0
            yield from self._map(vpn, False)
        if self._hw_only:
            data, owner = self._page(vpn)
        else:
            frame = self._frames[vpn]
            data = frame.data
            owner = frame.owner_pid
        line = addr // self._line_size
        state = self._lines.get(line)
        pid = self.pid
        if state is not None and (
            state[0] == pid or state[0] == -1 and state[1] >> pid & 1
        ):
            # CacheSystem.access's hit test, without the call.
            self._cache_counts[0] += 1
            cost += self._hit_cost
        else:
            cost += self._cache.access(self.cluster, pid, line, False, owner)
        t.time += cost
        t.user += cost
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)
        return float(data[(addr % self._page_size) // WORD_BYTES])

    def _write(self, addr: int, value: float, ptr: bool = False):
        """Store one shared word.  Usage: ``yield from env.write(a, v)``."""
        t = self._t
        cost = self._tp if ptr else self._ta
        vpn = addr // self._page_size
        if self._maps.get(vpn) != _WRITE:
            t.time += cost
            t.user += cost
            cost = 0
            yield from self._map(vpn, True)
        if self._hw_only:
            data, owner = self._page(vpn)
        else:
            frame = self._frames[vpn]
            data = frame.data
            owner = frame.owner_pid
        line = addr // self._line_size
        state = self._lines.get(line)
        if state is not None and state[0] == self.pid:
            self._cache_counts[0] += 1
            cost += self._hit_cost
        else:
            cost += self._cache.access(self.cluster, self.pid, line, True, owner)
        t.time += cost
        t.user += cost
        data[(addr % self._page_size) // WORD_BYTES] = value
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)

    def _read_many_fast(self, addrs: Iterable[int], ptr: bool = False):
        """Load several shared words in one call.

        Usage: ``a, b = yield from env.read_many((addr_a, addr_b))``.
        Equivalent — cycle for cycle, fault for fault, pause for pause —
        to a sequence of ``env.read`` calls over ``addrs``, but runs the
        whole sequence inside one generator.
        """
        t = self._t
        maps = self._maps
        frames = self._frames
        lines = self._lines
        access = self._cache.access
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        hit_cost = self._hit_cost
        hw_only = self._hw_only
        tcost = self._tp if ptr else self._ta
        out = []
        append = out.append
        ttime = t.time
        tuser = t.user
        for addr in addrs:
            ttime += tcost
            tuser += tcost
            vpn = addr // page_size
            if vpn not in maps:
                t.time = ttime
                t.user = tuser
                yield from self._map(vpn, False)
                ttime = t.time
                tuser = t.user
            if hw_only:
                data, owner = self._page(vpn)
            else:
                frame = frames[vpn]
                data = frame.data
                owner = frame.owner_pid
            line = addr // line_size
            state = lines.get(line)
            if state is not None and (
                state[0] == pid or state[0] == -1 and state[1] >> pid & 1
            ):
                counts[0] += 1
                ttime += hit_cost
                tuser += hit_cost
            else:
                cost = access(cluster, pid, line, False, owner)
                ttime += cost
                tuser += cost
            if ttime - t.last_yield > quantum:
                t.time = ttime
                t.user = tuser
                yield ("pause",)
                ttime = t.time
                tuser = t.user
            append(float(data[(addr % page_size) // WORD_BYTES]))
        t.time = ttime
        t.user = tuser
        return out

    def _read_block_fast(self, addr: int, nwords: int, ptr: bool = False):
        """Load ``nwords`` consecutive shared words starting at ``addr``.

        Usage: ``row = yield from env.read_block(a.addr(i), n)``.
        Equivalent to ``nwords`` sequential ``env.read`` calls, but
        resolves whole runs of guaranteed-hit lines in closed form: one
        directory probe (:meth:`CacheSystem.hit_run`), one aggregate
        charge, one slice off the frame — instead of per-word work.
        """
        t = self._t
        maps = self._maps
        access = self._cache.access
        hit_run = self._cache.hit_run
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        tcost = self._tp if ptr else self._ta
        whit = tcost + self._hit_cost
        # A miss batch is only worth attempting when the quantum budget
        # can admit at least one worst-case *hardware* line plus its
        # hit words (access_run's per-line bound rejects a first line
        # that is software-class and does not fit).
        batch_floor = self._cache.worst_hw_miss + tcost + (
            line_size // WORD_BYTES - 1
        ) * whit
        out = []
        append = out.append
        extend = out.extend
        ttime = t.time
        tuser = t.user
        end = addr + nwords * WORD_BYTES
        while addr < end:
            vpn = addr // page_size
            if vpn not in maps:
                # Unmapped page: this word goes through the per-word
                # read, which faults (or fills, at C == P); the loop
                # then resumes on the mapped page.
                t.time = ttime
                t.user = tuser
                append((yield from self._read(addr, ptr)))
                ttime = t.time
                tuser = t.user
                addr += WORD_BYTES
                continue
            data, owner = self._page(vpn)
            page_end = (vpn + 1) * page_size
            chunk_end = page_end if page_end < end else end
            while addr < chunk_end:
                line = addr // line_size
                max_lines = (chunk_end - 1) // line_size - line + 1
                budget = t.last_yield + quantum - ttime
                # Words beyond the first ``budget // whit + 1`` cannot
                # be charged before the next pause, and the pause stales
                # the probe anyway — so cap the probe at the lines the
                # budget can actually reach instead of the whole chunk.
                m = budget // whit + 1
                cap = (addr + m * WORD_BYTES - 1) // line_size - line + 1
                if cap > max_lines:
                    cap = max_lines
                nhit = hit_run(cluster, pid, line, cap, False)
                if nhit == 0:
                    # A run of genuine misses: service consecutive
                    # missing lines in one directory call, with the
                    # per-line classification, counts, and charges of
                    # the word loop — capped so no quantum pause can
                    # fall inside the batch.
                    m = 0
                    if budget > batch_floor:
                        m, charge = self._miss_run(
                            addr, chunk_end, False, owner, tcost, budget
                        )
                    if m:
                        ttime += charge
                        tuser += charge
                        w0 = (addr % page_size) // WORD_BYTES
                        extend(data[w0 : w0 + m].tolist())
                        addr += m * WORD_BYTES
                        continue
                    # Batch would cross the quantum before its first
                    # line: classify, charge, move one word.
                    cost = access(cluster, pid, line, False, owner)
                    ttime += tcost + cost
                    tuser += tcost + cost
                    if ttime - t.last_yield > quantum:
                        t.time = ttime
                        t.user = tuser
                        yield ("pause",)
                        ttime = t.time
                        tuser = t.user
                        append(float(data[(addr % page_size) // WORD_BYTES]))
                        addr += WORD_BYTES
                        break  # re-probe the TLB after the pause
                    append(float(data[(addr % page_size) // WORD_BYTES]))
                    addr += WORD_BYTES
                    continue
                # Guaranteed-hit run, cut short at the word whose charge
                # crosses the quantum (that word reads after the pause,
                # as the per-word path does).
                run_end = (line + nhit) * line_size
                if run_end > chunk_end:
                    run_end = chunk_end
                k = (run_end - addr) // WORD_BYTES
                if m >= k:
                    m = k
                    paused = k * whit > budget
                else:
                    paused = True
                cost = m * whit
                ttime += cost
                tuser += cost
                counts[0] += m
                w0 = (addr % page_size) // WORD_BYTES
                addr += m * WORD_BYTES
                if paused:
                    extend(data[w0 : w0 + m - 1].tolist())
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    ttime = t.time
                    tuser = t.user
                    append(float(data[w0 + m - 1]))
                    break  # re-probe the TLB after the pause
                extend(data[w0 : w0 + m].tolist())
        t.time = ttime
        t.user = tuser
        return out

    def _write_block_fast(
        self, addr: int, values: Sequence[float], ptr: bool = False
    ):
        """Store consecutive shared words starting at ``addr``.

        Usage: ``yield from env.write_block(a.addr(i), values)``.
        Equivalent to sequential ``env.write`` calls over ``values``,
        with the same closed-form hit-run batching as ``read_block``.
        """
        t = self._t
        maps = self._maps
        access = self._cache.access
        hit_run = self._cache.hit_run
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        tcost = self._tp if ptr else self._ta
        whit = tcost + self._hit_cost
        batch_floor = self._cache.worst_hw_miss + tcost + (
            line_size // WORD_BYTES - 1
        ) * whit
        vi = 0
        ttime = t.time
        tuser = t.user
        end = addr + len(values) * WORD_BYTES
        while addr < end:
            vpn = addr // page_size
            if maps.get(vpn) != _WRITE:
                # Not writable yet: this word goes through the per-word
                # write.
                t.time = ttime
                t.user = tuser
                yield from self._write(addr, values[vi], ptr)
                ttime = t.time
                tuser = t.user
                vi += 1
                addr += WORD_BYTES
                continue
            data, owner = self._page(vpn)
            page_end = (vpn + 1) * page_size
            chunk_end = page_end if page_end < end else end
            while addr < chunk_end:
                line = addr // line_size
                max_lines = (chunk_end - 1) // line_size - line + 1
                budget = t.last_yield + quantum - ttime
                # Budget-capped probe, as in _read_block_fast.
                m = budget // whit + 1
                cap = (addr + m * WORD_BYTES - 1) // line_size - line + 1
                if cap > max_lines:
                    cap = max_lines
                nhit = hit_run(cluster, pid, line, cap, True)
                if nhit == 0:
                    # Batched miss run, as in _read_block_fast: stores
                    # land in aggregate, and the budget cap proves no
                    # pause falls inside the batch.
                    m = 0
                    if budget > batch_floor:
                        m, charge = self._miss_run(
                            addr, chunk_end, True, owner, tcost, budget
                        )
                    if m:
                        ttime += charge
                        tuser += charge
                        w0 = (addr % page_size) // WORD_BYTES
                        data[w0 : w0 + m] = values[vi : vi + m]
                        vi += m
                        addr += m * WORD_BYTES
                        continue
                    cost = access(cluster, pid, line, True, owner)
                    ttime += tcost + cost
                    tuser += tcost + cost
                    data[(addr % page_size) // WORD_BYTES] = values[vi]
                    vi += 1
                    addr += WORD_BYTES
                    if ttime - t.last_yield > quantum:
                        t.time = ttime
                        t.user = tuser
                        yield ("pause",)
                        ttime = t.time
                        tuser = t.user
                        break  # re-probe the TLB after the pause
                    continue
                run_end = (line + nhit) * line_size
                if run_end > chunk_end:
                    run_end = chunk_end
                k = (run_end - addr) // WORD_BYTES
                if m >= k:
                    m = k
                    paused = k * whit > budget
                else:
                    paused = True
                cost = m * whit
                ttime += cost
                tuser += cost
                counts[0] += m
                w0 = (addr % page_size) // WORD_BYTES
                # Stores land before a pause, as the per-word path does.
                data[w0 : w0 + m] = values[vi : vi + m]
                vi += m
                addr += m * WORD_BYTES
                if paused:
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    ttime = t.time
                    tuser = t.user
                    break  # re-probe the TLB after the pause
        t.time = ttime
        t.user = tuser

    # ------------------------------------------------------------------
    # batched operations as per-word loops (REPRO_NO_FASTPATH=1)
    # ------------------------------------------------------------------

    def _read_many_slow(self, addrs: Iterable[int], ptr: bool = False):
        out = []
        for addr in addrs:
            value = yield from self._read(addr, ptr)
            out.append(value)
        return out

    def _read_block_slow(self, addr: int, nwords: int, ptr: bool = False):
        return (
            yield from self._read_many_slow(
                range(addr, addr + nwords * WORD_BYTES, WORD_BYTES), ptr
            )
        )

    def _write_block_slow(
        self, addr: int, values: Sequence[float], ptr: bool = False
    ):
        for i, value in enumerate(values):
            yield from self._write(addr + i * WORD_BYTES, value, ptr)

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------

    def compute(self, cycles: int):
        """Spend ``cycles`` of pure computation."""
        t = self._t
        t.time += cycles
        t.user += cycles
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def lock(self, lk: "MGSLock"):
        """Acquire an MGS lock (an acquire point; no protocol action
        needed because MGS invalidates eagerly at releases)."""
        yield ("lock", lk)

    def unlock(self, lk: "MGSLock"):
        """Release an MGS lock.  This is a release point: the DUQ is
        flushed *before* the lock is freed — the source of the paper's
        critical-section dilation."""
        yield ("unlock", lk)

    def barrier(self):
        """Wait on the global barrier (also a release point)."""
        yield ("barrier",)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """The thread's local clock (cycles)."""
        return self._t.time

    @property
    def fastpath(self) -> bool:
        """Whether this Env batches ``read_block``, ``write_block`` and
        ``read_many``."""
        return self._rt.options.fastpath
