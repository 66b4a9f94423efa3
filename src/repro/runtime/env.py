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
miss, handing it the directory entry it probed (None for an absent
line) so that ``access`` probes nothing again.  Nothing is kept between
operations, so a suspension point (fault, pause, lock, unlock, barrier)
leaves nothing stale behind.  The word that pauses returns its value
from the page array it read before the pause, because the frame's data
may be replaced while the thread waits.

Blocks
------

``read_many`` is a loop of the per-word read.  ``read_block`` and
``write_block`` hand each mapped page's words to one line walk
(:meth:`Env._walk`): it gives each line the per-word hit test, calls
:meth:`CacheSystem.access` once at a missing line's first word (with
the entry it probed), charges every other word as a hit in closed form,
and stops at the word that crosses the quantum.  They re-probe the TLB
at every page and after every pause.  ``RunOptions(fastpath=False)`` (or
``REPRO_NO_FASTPATH=1``) turns the two block operations into plain loops
of the per-word body, the reference they are pinned against bit for bit
(``tests/test_fastpath.py``, ``tests/test_golden_equivalence.py``).  See
``docs/PERFORMANCE.md``.
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

    ``read``, ``write`` and ``read_many`` have one implementation each.
    The block operations (``read_block``, ``write_block``) are bound per
    instance: to their line walks normally, or to plain loops of the
    per-word body when the runtime's options say ``fastpath=False``
    (e.g. via the ``REPRO_NO_FASTPATH=1`` escape hatch).  Both produce
    bit-for-bit identical simulations.
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
        else:
            self.read_block = self._read_block_slow
            self.write_block = self._write_block_slow
        self.read_many = self._read_many
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

    # ------------------------------------------------------------------
    # the block operations' line walk
    # ------------------------------------------------------------------

    def _walk(self, addr, chunk_end, write, owner, whit, limit):
        """Charge the words ``[addr, chunk_end)`` of one mapped page as
        the per-word bodies would, up to the word that crosses the
        quantum.

        Each line gets the per-word hit test; a missing line goes to
        :meth:`CacheSystem.access` once, with its probed entry, at its
        first word, after which its other words hit.  Every word costs
        ``whit`` (translation plus hit) and a miss adds its surcharge
        over a hit, so the crossing word — the first whose running
        charge exceeds ``limit`` — is found in closed form, and
        recomputed only after a miss.  Counts the hit words and returns
        ``(words, charge, paused)``: the words charged, their charge,
        and whether the last of them crossed the quantum.
        """
        line_size = self._line_size
        wpl = line_size // WORD_BYTES
        get = self._lines.get
        pid = self.pid
        line = first = addr // line_size
        first_word = (addr - first * line_size) // WORD_BYTES
        nwords = (chunk_end - addr) // WORD_BYTES
        end = first + (first_word + nwords - 1) // wpl
        extra = 0  # the misses' surcharges over a hit
        misses = 0
        while True:
            # The crossing word's index, were every word from here a
            # hit.  Stolen handler cycles can leave ``limit`` negative
            # on entry: then the first word crosses.
            fit = (limit - extra) // whit if limit > extra else 0
            cross = first + (fit + first_word) // wpl if fit < nwords else end + 1
            last = cross if cross < end else end
            if write:
                while line <= last:
                    state = get(line)
                    if state is None or state[0] != pid:
                        break
                    line += 1
            else:
                while line <= last:
                    state = get(line)
                    if state is None or state[0] != pid and (
                        state[0] != -1 or not state[1] >> pid & 1
                    ):
                        break
                    line += 1
            if line > last:
                # Every line up to the crossing one (or the chunk's end)
                # hits.
                n = nwords if cross > end else fit + 1
                self._cache_counts[0] += n - misses
                return n, n * whit + extra, cross <= end
            j = (line - first) * wpl - first_word  # the miss's word
            if j < 0:
                j = 0
            cost = self._cache.access(self.cluster, pid, line, write, owner, state)
            extra += cost - self._hit_cost
            misses += 1
            charge = (j + 1) * whit + extra
            if charge > limit:
                self._cache_counts[0] += j + 1 - misses
                return j + 1, charge, True
            line += 1

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
            cost += self._cache.access(self.cluster, pid, line, False, owner, state)
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
            cost += self._cache.access(
                self.cluster, self.pid, line, True, owner, state
            )
        t.time += cost
        t.user += cost
        data[(addr % self._page_size) // WORD_BYTES] = value
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)

    def _read_many(self, addrs: Iterable[int], ptr: bool = False):
        """Load several shared words in one call.

        Usage: ``a, b = yield from env.read_many((addr_a, addr_b))``.
        A loop of ``env.read`` calls over ``addrs``.
        """
        out = []
        for addr in addrs:
            value = yield from self._read(addr, ptr)
            out.append(value)
        return out

    def _read_block_fast(self, addr: int, nwords: int, ptr: bool = False):
        """Load ``nwords`` consecutive shared words starting at ``addr``.

        Usage: ``row = yield from env.read_block(a.addr(i), n)``.
        Equivalent to ``nwords`` sequential ``env.read`` calls, but
        charges each mapped page's words in one :meth:`_walk` and takes
        them in one slice off the frame.
        """
        t = self._t
        maps = self._maps
        page_size = self._page_size
        whit = (self._tp if ptr else self._ta) + self._hit_cost
        out = []
        end = addr + nwords * WORD_BYTES
        while addr < end:
            vpn = addr // page_size
            if vpn not in maps:
                # Unmapped page: this word goes through the per-word
                # read, which faults (or fills, at C == P).
                out.append((yield from self._read(addr, ptr)))
                addr += WORD_BYTES
                continue
            data, owner = self._page(vpn)
            chunk_end = min((vpn + 1) * page_size, end)
            limit = t.last_yield + self._quantum - t.time
            m, charge, paused = self._walk(addr, chunk_end, False, owner, whit, limit)
            t.time += charge
            t.user += charge
            w0 = (addr % page_size) // WORD_BYTES
            addr += m * WORD_BYTES
            if paused:
                # The crossing word reads after the pause, as the
                # per-word read does; the TLB is re-probed after it.
                out.extend(data[w0 : w0 + m - 1].tolist())
                yield ("pause",)
                out.append(float(data[w0 + m - 1]))
            else:
                out.extend(data[w0 : w0 + m].tolist())
        return out

    def _write_block_fast(
        self, addr: int, values: Sequence[float], ptr: bool = False
    ):
        """Store consecutive shared words starting at ``addr``.

        Usage: ``yield from env.write_block(a.addr(i), values)``.
        Equivalent to sequential ``env.write`` calls over ``values``,
        with the same per-page :meth:`_walk` as ``read_block``.
        """
        t = self._t
        maps = self._maps
        page_size = self._page_size
        whit = (self._tp if ptr else self._ta) + self._hit_cost
        vi = 0
        end = addr + len(values) * WORD_BYTES
        while addr < end:
            vpn = addr // page_size
            if maps.get(vpn) != _WRITE:
                # Not writable yet: this word goes through the per-word
                # write.
                yield from self._write(addr, values[vi], ptr)
                vi += 1
                addr += WORD_BYTES
                continue
            data, owner = self._page(vpn)
            chunk_end = min((vpn + 1) * page_size, end)
            limit = t.last_yield + self._quantum - t.time
            m, charge, paused = self._walk(addr, chunk_end, True, owner, whit, limit)
            t.time += charge
            t.user += charge
            w0 = (addr % page_size) // WORD_BYTES
            # Stores land before a pause, as the per-word write does.
            data[w0 : w0 + m] = values[vi : vi + m]
            vi += m
            addr += m * WORD_BYTES
            if paused:
                yield ("pause",)

    # ------------------------------------------------------------------
    # block operations as per-word loops (REPRO_NO_FASTPATH=1)
    # ------------------------------------------------------------------

    def _read_block_slow(self, addr: int, nwords: int, ptr: bool = False):
        return (
            yield from self._read_many(
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
        """Whether this Env walks ``read_block`` and ``write_block`` by
        line."""
        return self._rt.options.fastpath
