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

Fast paths
----------

Word accesses dominate simulation wall-clock, so ``Env`` keeps a
fast-path cache across the current uninterrupted execution burst: the
pages it has resolved — ``vpn -> (frame data, write-ok, owner)`` — and
the hardware cache lines it has read and written.  A repeat access to a
resolved page skips the TLB and frame-dictionary probes; a repeat access
to a known line skips the hardware directory entirely (it is a hit by
construction).  The batched :meth:`Env.read_block` /
:meth:`Env.write_block` / :meth:`Env.read_many` APIs additionally
resolve a whole run of accesses inside one generator, eliminating the
per-word sub-generator round trip.

This is safe because thread execution between suspension points is
atomic: no simulator event — and therefore no protocol action, TLB
shootdown, or directory update by another processor — can run while the
thread's generator is executing.  The cache is dropped at every
suspension point (fault, pause, lock, unlock, barrier), so the fast
paths charge exactly the cycles, update exactly the statistics, and
suspend at exactly the times the slow paths do.  The contract is pinned
bit-for-bit by ``tests/test_golden_equivalence.py``; set
``REPRO_NO_FASTPATH=1`` (or ``RunOptions(fastpath=False)``) to force
the original one-access-at-a-time code paths.  See
``docs/PERFORMANCE.md``.

Adaptive bypass
---------------

The burst caches only pay for themselves when bursts are long enough to
serve repeat accesses.  Each ``Env`` therefore *samples* its own
burst-cache hit rate over the engine's first ``fp_sample_bursts``
bursts and, when the observed hits per burst fall below
``fp_bypass_hits_per_burst``, rebinds its memory operations to the
plain slow paths for the rest of the run.  The thresholds are per-engine
class attributes on :class:`~repro.core.engine.Protocol`: an
all-software engine like swdsm has shorter bursts and rarer reuse, so
it decides sooner and demands more reuse.  The decision depends only on
deterministic simulation state and both engines are cycle-identical, so
results are unchanged either way; only the wall-clock moves.  The
bypass is off while the race detector has the access methods
instrumented (rebinding would drop its recording wrappers).

The bypass is kept because it measurably wins.  Jacobi, the miss-heavy
loop it was added for, no longer demotes; but with the sampling
removed, six alternating performance-ledger run pairs put the
``compare_cold`` median wall time at 11.68 s against 10.64 s (ledger
reference-host seconds; slower in 5 of 6 pairs), ``figs_protocol``
about 2% slower, and ``figs_hit`` unchanged.

Batches
-------

Each memory operation has one fast implementation beside its slow
reference.  ``read_many`` is an inlined per-word loop.  ``read_block``
and ``write_block`` walk each page in line runs: a run of guaranteed
hits is charged in closed form after one :meth:`CacheSystem.hit_run`
probe, and a run of misses goes to one :meth:`CacheSystem.access_run`
call (:meth:`Env._miss_run`).
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

class Env:
    """Per-thread view of the machine.

    The memory operations (``read``, ``write``, ``read_block``,
    ``write_block``, ``read_many``) are bound per
    instance: to the fast-path implementations normally, or to the
    original slow paths when the runtime's options say
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
        "_frames",
        "_costs",
        "_ta",
        "_tp",
        "_fp_pages",
        "_fp_rlines",
        "_fp_wlines",
        "_fp_hits",
        "_fp_bursts",
        "_fp_adaptive",
        "_fp_sample_bursts",
        "_fp_bypass_threshold",
        "fastpath_bypassed",
        # per-instance bindings (fast or slow implementation)
        "read",
        "write",
        "read_block",
        "write_block",
        "read_many",
    )

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
        self._frames = runtime.protocol.frames_view(self.pid)
        self._costs = runtime.costs
        self._ta = self._costs.translate_array
        self._tp = self._costs.translate_pointer
        # Pages resolved this burst: vpn -> (frame data, write-ok, owner).
        self._fp_pages: dict[int, tuple] = {}
        # Hardware cache lines known to hit for reads / for writes.
        self._fp_rlines: set[int] = set()
        self._fp_wlines: set[int] = set()
        # Adaptive-bypass sampling state (see module docstring); the
        # window and threshold are per-engine class attributes.
        self._fp_hits = 0
        self._fp_bursts = 0
        self._fp_adaptive = runtime.options.fastpath
        self._fp_sample_bursts = runtime.protocol.fp_sample_bursts
        self._fp_bypass_threshold = runtime.protocol.fp_bypass_hits_per_burst
        #: whether the adaptive sampler demoted this Env to the slow
        #: paths (never under the race detector, which turns it off)
        self.fastpath_bypassed = False
        if runtime.options.fastpath:
            self.read = self._read_fast
            self.write = self._write_fast
            self.read_block = self._read_block_fast
            self.write_block = self._write_block_fast
            self.read_many = self._read_many_fast
        else:
            self.read = self._read_slow
            self.write = self._write_slow
            self.read_block = self._read_block_slow
            self.write_block = self._write_block_slow
            self.read_many = self._read_many_slow
        detector = runtime.race_detector
        if detector is not None:
            # Opt-in happens-before race detection (repro.analysis):
            # rebinds the five operations to recording wrappers that
            # delegate to the originals unchanged and charge nothing.
            # The adaptive bypass must not rebind over those wrappers.
            self._fp_adaptive = False
            detector.instrument(self)

    # ------------------------------------------------------------------
    # fast-path cache maintenance
    # ------------------------------------------------------------------

    def _fp_reset(self) -> None:
        """Drop the fast-path cache.

        Called after every suspension point: while the thread was
        suspended, protocol handlers may have invalidated its TLB entry,
        replaced the frame data, or changed hardware directory state.
        Cleared in place so batched loops can hold direct references.

        Doubles as the adaptive-bypass sampling point: every reset ends
        one burst, and after the engine's ``fp_sample_bursts`` bursts
        the Env decides once whether its burst caches earn their keep.
        """
        self._fp_pages.clear()
        self._fp_rlines.clear()
        self._fp_wlines.clear()
        if self._fp_adaptive:
            self._fp_bursts += 1
            if self._fp_bursts >= self._fp_sample_bursts:
                self._fp_adaptive = False
                if self._fp_hits < self._fp_bypass_threshold * self._fp_bursts:
                    self._fp_bypass()

    def _fp_bypass(self) -> None:
        """Fall back to the plain one-access-at-a-time paths.

        Cycle-identical by construction (the slow paths are the golden
        reference the fast paths are pinned against); only the Python
        wall-clock changes.  A generator currently suspended inside a
        fast-path method finishes that call on the fast code; every
        subsequent ``env.read``/``env.write``/... dispatches slow.
        """
        self.read = self._read_slow
        self.write = self._write_slow
        self.read_block = self._read_block_slow
        self.write_block = self._write_block_slow
        self.read_many = self._read_many_slow
        self.fastpath_bypassed = True

    def close(self) -> None:
        """Cut this finished Env's reference cycles (see
        :meth:`Runtime.close`): the Runtime points back at it, and the
        five memory operations are bound methods of the Env itself."""
        self._rt = None
        self.read = self.write = self.read_block = self.write_block = None
        self.read_many = None

    def _fp_load(self, vpn: int, write: bool = False):
        """Resolve ``vpn`` with read (or, if ``write``, write) privilege;
        may yield mapping faults.  Returns and caches the
        ``(frame data, write-ok, owner)`` entry."""
        if self._hw_only:
            data = self._hw_frame(vpn, self._t)
            entry = (data, True, self._rt.aspace.home_proc(vpn))
        else:
            tlb = self._tlb
            while not (
                tlb.has_write(vpn) if write else tlb.lookup(vpn) is not None
            ):
                yield ("fault", vpn, write)
                self._fp_reset()
            frame = self._frames[vpn]
            entry = (frame.data, write or tlb.has_write(vpn), frame.owner_pid)
        self._fp_pages[vpn] = entry
        return entry

    def _miss_run(self, addr, chunk_end, write, owner, tcost, budget):
        """Service a run of missing lines from ``addr`` in one
        :meth:`CacheSystem.access_run` call.

        ``addr`` lies on one resolved page, and the run may extend to
        ``chunk_end``.  Each line carries its translate charge plus its
        remaining words' hit charge, and ``access_run`` admits lines
        only while that stays within ``budget``, so no quantum pause can
        fall inside the run.  Remembers the serviced lines, records the
        hit words, and returns ``(words, charge)`` for the caller to
        charge and move data for — ``(0, 0)`` when not even the first
        line fits.
        """
        line_size = self._line_size
        line = addr // line_size
        whit = tcost + self._hit_cost
        extras = []
        a = addr
        line_end = (line + 1) * line_size
        while a < chunk_end:
            we = chunk_end if chunk_end < line_end else line_end
            extras.append(tcost + ((we - a) // WORD_BYTES - 1) * whit)
            a = we
            line_end += line_size
        k, charge = self._cache.access_run(
            self.cluster, self.pid, line, write, owner, extras, budget
        )
        if not k:
            return 0, 0
        run_end = (line + k) * line_size
        if run_end > chunk_end:
            run_end = chunk_end
        m = (run_end - addr) // WORD_BYTES
        (self._fp_wlines if write else self._fp_rlines).update(range(line, line + k))
        self._cache_counts[0] += m - k
        self._fp_hits += m - k
        return m, charge

    # ------------------------------------------------------------------
    # memory operations — fast paths
    # ------------------------------------------------------------------

    def _read_fast(self, addr: int, ptr: bool = False):
        """Load one shared word.  Usage: ``v = yield from env.read(a)``."""
        t = self._t
        cost = self._tp if ptr else self._ta
        t.time += cost
        t.user += cost
        entry = self._fp_pages.get(addr // self._page_size)
        if entry is None:
            entry = yield from self._fp_load(addr // self._page_size)
        line = addr // self._line_size
        if line in self._fp_wlines or line in self._fp_rlines:
            self._cache_counts[0] += 1
            self._fp_hits += 1
            cost = self._hit_cost
        else:
            cost = self._cache.access(
                self.cluster, self.pid, line, False, entry[2]
            )
            self._fp_rlines.add(line)
        t.time += cost
        t.user += cost
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)
            self._fp_reset()
        return float(entry[0][(addr % self._page_size) // WORD_BYTES])

    def _write_fast(self, addr: int, value: float, ptr: bool = False):
        """Store one shared word.  Usage: ``yield from env.write(a, v)``."""
        t = self._t
        cost = self._tp if ptr else self._ta
        t.time += cost
        t.user += cost
        entry = self._fp_pages.get(addr // self._page_size)
        if entry is None or not entry[1]:
            entry = yield from self._fp_load(addr // self._page_size, True)
        line = addr // self._line_size
        if line in self._fp_wlines:
            self._cache_counts[0] += 1
            self._fp_hits += 1
            cost = self._hit_cost
        else:
            cost = self._cache.access(
                self.cluster, self.pid, line, True, entry[2]
            )
            self._fp_wlines.add(line)
        t.time += cost
        t.user += cost
        entry[0][(addr % self._page_size) // WORD_BYTES] = value
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)
            self._fp_reset()

    def _read_many_fast(self, addrs: Iterable[int], ptr: bool = False):
        """Load several shared words in one call.

        Usage: ``a, b = yield from env.read_many((addr_a, addr_b))``.
        Equivalent — cycle for cycle, fault for fault, pause for pause —
        to a sequence of ``env.read`` calls over ``addrs``, but resolves
        the whole run inside one generator.
        """
        t = self._t
        pages = self._fp_pages
        rlines = self._fp_rlines
        wlines = self._fp_wlines
        access = self._cache.access
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        hit_cost = self._hit_cost
        tcost = self._tp if ptr else self._ta
        out = []
        append = out.append
        ttime = t.time
        tuser = t.user
        for addr in addrs:
            ttime += tcost
            tuser += tcost
            entry = pages.get(addr // page_size)
            if entry is None:
                t.time = ttime
                t.user = tuser
                entry = yield from self._fp_load(addr // page_size)
                ttime = t.time
                tuser = t.user
            line = addr // line_size
            if line in wlines or line in rlines:
                counts[0] += 1
                self._fp_hits += 1
                ttime += hit_cost
                tuser += hit_cost
            else:
                cost = access(cluster, pid, line, False, entry[2])
                rlines.add(line)
                ttime += cost
                tuser += cost
            if ttime - t.last_yield > quantum:
                t.time = ttime
                t.user = tuser
                yield ("pause",)
                self._fp_reset()
                ttime = t.time
                tuser = t.user
            append(float(entry[0][(addr % page_size) // WORD_BYTES]))
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
        pages = self._fp_pages
        rlines = self._fp_rlines
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
            entry = pages.get(vpn)
            if entry is None:
                # Unresolved page: this word goes through env.read, which
                # may fault; the loop then resumes on the resolved page.
                t.time = ttime
                t.user = tuser
                append((yield from self._read_fast(addr, ptr)))
                ttime = t.time
                tuser = t.user
                addr += WORD_BYTES
                continue
            data = entry[0]
            owner = entry[2]
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
                    rlines.add(line)
                    ttime += tcost + cost
                    tuser += tcost + cost
                    if ttime - t.last_yield > quantum:
                        t.time = ttime
                        t.user = tuser
                        yield ("pause",)
                        self._fp_reset()
                        ttime = t.time
                        tuser = t.user
                        append(float(data[(addr % page_size) // WORD_BYTES]))
                        addr += WORD_BYTES
                        break  # page/directory knowledge is stale
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
                self._fp_hits += m
                w0 = (addr % page_size) // WORD_BYTES
                addr += m * WORD_BYTES
                if paused:
                    extend(data[w0 : w0 + m - 1].tolist())
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    self._fp_reset()
                    ttime = t.time
                    tuser = t.user
                    append(float(data[w0 + m - 1]))
                    break  # page/directory knowledge is stale
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
        pages = self._fp_pages
        wlines = self._fp_wlines
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
            entry = pages.get(vpn)
            if entry is None or not entry[1]:
                # Not yet writable: this word goes through env.write.
                t.time = ttime
                t.user = tuser
                yield from self._write_fast(addr, values[vi], ptr)
                ttime = t.time
                tuser = t.user
                vi += 1
                addr += WORD_BYTES
                continue
            data = entry[0]
            owner = entry[2]
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
                    wlines.add(line)
                    ttime += tcost + cost
                    tuser += tcost + cost
                    data[(addr % page_size) // WORD_BYTES] = values[vi]
                    vi += 1
                    addr += WORD_BYTES
                    if ttime - t.last_yield > quantum:
                        t.time = ttime
                        t.user = tuser
                        yield ("pause",)
                        self._fp_reset()
                        ttime = t.time
                        tuser = t.user
                        break  # page/directory knowledge is stale
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
                self._fp_hits += m
                w0 = (addr % page_size) // WORD_BYTES
                # Stores land before a pause, as the per-word path does.
                data[w0 : w0 + m] = values[vi : vi + m]
                vi += m
                addr += m * WORD_BYTES
                if paused:
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    self._fp_reset()
                    ttime = t.time
                    tuser = t.user
                    break  # page/directory knowledge is stale
        t.time = ttime
        t.user = tuser

    # ------------------------------------------------------------------
    # memory operations — slow paths (REPRO_NO_FASTPATH=1)
    # ------------------------------------------------------------------

    def _read_slow(self, addr: int, ptr: bool = False):
        """Load one shared word (original one-access-at-a-time path)."""
        t = self._t
        costs = self._costs
        t.charge_user(costs.translate_pointer if ptr else costs.translate_array)
        vpn = addr // self._page_size
        if self._hw_only:
            data = self._hw_frame(vpn, t)
        else:
            while self._tlb.lookup(vpn) is None:
                yield ("fault", vpn, False)
            data = self._frames[vpn].data
        owner = self._owner_pid(vpn)
        t.charge_user(
            self._cache.access(
                self.cluster, self.pid, addr // self._line_size, False, owner
            )
        )
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)
        return float(data[(addr % self._page_size) // WORD_BYTES])

    def _write_slow(self, addr: int, value: float, ptr: bool = False):
        """Store one shared word (original one-access-at-a-time path)."""
        t = self._t
        costs = self._costs
        t.charge_user(costs.translate_pointer if ptr else costs.translate_array)
        vpn = addr // self._page_size
        if self._hw_only:
            data = self._hw_frame(vpn, t)
        else:
            while not self._tlb.has_write(vpn):
                yield ("fault", vpn, True)
            data = self._frames[vpn].data
        owner = self._owner_pid(vpn)
        t.charge_user(
            self._cache.access(
                self.cluster, self.pid, addr // self._line_size, True, owner
            )
        )
        data[(addr % self._page_size) // WORD_BYTES] = value
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)

    def _read_many_slow(self, addrs: Iterable[int], ptr: bool = False):
        out = []
        for addr in addrs:
            value = yield from self._read_slow(addr, ptr)
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
            yield from self._write_slow(addr + i * WORD_BYTES, value, ptr)

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
            self._fp_reset()

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def lock(self, lk: "MGSLock"):
        """Acquire an MGS lock (an acquire point; no protocol action
        needed because MGS invalidates eagerly at releases)."""
        yield ("lock", lk)
        self._fp_reset()

    def unlock(self, lk: "MGSLock"):
        """Release an MGS lock.  This is a release point: the DUQ is
        flushed *before* the lock is freed — the source of the paper's
        critical-section dilation."""
        yield ("unlock", lk)
        self._fp_reset()

    def barrier(self):
        """Wait on the global barrier (also a release point)."""
        yield ("barrier",)
        self._fp_reset()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _owner_pid(self, vpn: int) -> int:
        if self._hw_only:
            return self._rt.aspace.home_proc(vpn)
        return self._frames[vpn].owner_pid

    def _hw_frame(self, vpn: int, t):
        """Home-copy access for the tightly-coupled configuration."""
        tlb = self._tlb
        if tlb.lookup(vpn) is None:
            # Only SVM overhead remains at C == P: a one-time fill.
            t.charge_user(self._costs.fault_overhead + self._costs.map_fill)
            tlb.fill(vpn, MapMode.WRITE)
        return self._protocol.home(vpn).data

    @property
    def now(self) -> int:
        """The thread's local clock (cycles)."""
        return self._t.time

    @property
    def fastpath(self) -> bool:
        """Whether this Env uses the hot-path access engine."""
        return self._rt.options.fastpath
