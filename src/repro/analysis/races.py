"""Happens-before under release consistency: one vector-clock tracker,
the race detector and value oracle built on it.

MGS guarantees release consistency: a program free of data races —
conflicting accesses unordered by the happens-before relation induced by
its locks and barriers — observes sequentially consistent executions, so
each of its reads has exactly one legal value: that of the last write
ordered before it.  :class:`HappensBefore` states that relation once:
every thread carries a vector clock, every sync object (a lock, a
barrier episode) carries one too, ``acquire`` joins the object's clock
into the thread's and ``release`` joins the thread's into the object's.
The explorer (:mod:`repro.analysis.explore`) judges its reads on it,
and :class:`RaceDetector` checks both halves of the contract on a real
run, in the spirit of Eraser/FastTrack (see PAPERS.md): every shared
word carries the epoch and value of its last write plus the clocks of
its current readers; a conflicting access not ordered by happens-before
is a :class:`Race`, and a race-free read that returns anything but the
last write's value is a :class:`StaleRead` — a coherence bug, never the
program's.

The detector is a pure observer.  It hooks the runtime's lock / unlock /
barrier handling (``runtime/runner.py``) and wraps the per-thread memory
operations bound by :class:`~repro.runtime.env.Env`; the wrappers
delegate to the original generators unchanged and charge no cycles, so
instrumented runs are cycle-identical to bare ones.

Locations are words: the paper's applications *rely* on page-level
false sharing (TSP's path-element pool) being benign, so two threads
touching different words of one page never race.  The first
:data:`MAX_RACES` distinct races and as many stale reads are kept.
Deliberate, algorithmically benign races (TSP's unlocked read of the
monotonically tightening incumbent bound) are declared with
:meth:`RaceDetector.exempt` / ``Runtime.annotate_benign_race`` and
documented in docs/ANALYSIS.md.  Reads of exempt words are not
value-checked, nor are reads of words no tracked write has touched
(values set by ``arr.init`` or ``poke`` before the threads ran).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.params import WORD_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.env import Env
    from repro.runtime.runner import Runtime

__all__ = ["HappensBefore", "Race", "RaceDetector", "RaceError", "StaleRead"]

#: races (and, separately, stale reads) recorded before the detector
#: stops collecting new ones
MAX_RACES = 32


class HappensBefore:
    """Vector clocks for ``nthreads`` threads and their sync objects.

    Sync objects are named by any hashable key: a lock id, the explorer's
    lock, or ``("barrier", k)`` for the k-th barrier episode.  Clocks
    start at zero and a thread's own entry ticks after each acquire and
    release, so writes on either side of a release carry different
    epochs.
    """

    def __init__(self, nthreads: int) -> None:
        self.clocks = [[0] * nthreads for _ in range(nthreads)]
        self.sync: dict[object, list[int]] = {}
        #: barrier episodes each thread has departed
        self.episodes = [0] * nthreads

    def tick(self, thread: int) -> None:
        self.clocks[thread][thread] += 1

    def acquire(self, thread: int, key: object) -> None:
        """``thread`` observed a release on ``key`` (lock grant, barrier
        departure): join the object's clock into the thread's."""
        own = self.clocks[thread]
        for i, c in enumerate(self.sync.get(key, ())):
            if c > own[i]:
                own[i] = c
        own[thread] += 1

    def release(self, thread: int, key: object) -> None:
        """``thread`` publishes its history on ``key`` (unlock, barrier
        arrival): join the thread's clock into the object's."""
        own = self.clocks[thread]
        sync = self.sync.setdefault(key, [0] * len(own))
        for i, c in enumerate(own):
            if c > sync[i]:
                sync[i] = c
        own[thread] += 1

    def barrier_arrive(self, thread: int) -> None:
        """Release into this thread's next barrier episode."""
        self.release(thread, ("barrier", self.episodes[thread]))

    def barrier_depart(self, thread: int) -> None:
        """Acquire the episode every participant released into: each
        arrives before any departs, so nobody counts the participants."""
        self.acquire(thread, ("barrier", self.episodes[thread]))
        self.episodes[thread] += 1

    def state(self) -> tuple:
        """Hashable snapshot (the explorer's frontier dedup)."""
        return (
            tuple(map(tuple, self.clocks)),
            tuple(sorted(
                (repr(key), tuple(c)) for key, c in self.sync.items() if any(c)
            )),
            tuple(self.episodes),
        )


@dataclass(frozen=True)
class Race:
    """One pair of conflicting accesses unordered by happens-before."""

    addr: int  # byte address of the word
    vpn: int
    prev_pid: int
    prev_kind: str  # "read" or "write"
    pid: int
    kind: str

    def describe(self) -> str:
        return (
            f"addr 0x{self.addr:x} (vpn {self.vpn}): "
            f"{self.prev_kind} by proc {self.prev_pid} races "
            f"{self.kind} by proc {self.pid}"
        )


@dataclass(frozen=True)
class StaleRead:
    """A race-free read that missed the last write ordered before it."""

    addr: int
    vpn: int
    pid: int
    cluster: int
    value: float
    writer: int
    writer_cluster: int
    written: float

    def describe(self) -> str:
        return (
            f"addr 0x{self.addr:x} (vpn {self.vpn}): proc {self.pid} "
            f"(SSMP {self.cluster}) read {self.value!r}, but the last "
            f"write ordered before it, by proc {self.writer} "
            f"(SSMP {self.writer_cluster}), wrote {self.written!r}"
        )


class RaceError(AssertionError):
    """Raised by :meth:`RaceDetector.certify` on races or stale reads."""

    def __init__(
        self, races: Sequence[Race], stale: Sequence[StaleRead] = ()
    ) -> None:
        self.races = list(races)
        self.stale_reads = list(stale)
        lines = [
            f"{len(races)} data race(s) and {len(stale)} stale read(s) "
            f"detected:"
        ]
        lines.extend(f"  {race.describe()}" for race in races)
        lines.extend(f"  stale read: {s.describe()}" for s in stale)
        super().__init__("\n".join(lines))


class RaceDetector(HappensBefore):
    """Happens-before race detection and read-value checking over one
    runtime's execution.

    Construction publishes the detector as ``rt.race_detector``; the
    runtime's lock/unlock/barrier handlers call :meth:`acquire`,
    :meth:`release`, :meth:`barrier_arrive` and :meth:`barrier_depart`,
    and every subsequently spawned :class:`Env` feeds it accesses.
    Attach *before* spawning threads (construction hooks and
    ``Runtime(analysis=...)`` both do).
    """

    def __init__(self, rt: "Runtime") -> None:
        super().__init__(rt.config.total_processors)
        # A thread's first epoch must differ from "never synchronized
        # with", so an unordered access before any sync still races.
        for pid in range(len(self.clocks)):
            self.tick(pid)
        self._page_size = rt.config.page_size
        self._cluster_of = rt.config.cluster_of
        #: last write per location: loc -> (pid, clock, value)
        self._writes: dict[int, tuple[int, int, float]] = {}
        #: reader clocks per location: loc -> {pid: clock}
        self._reads: dict[int, dict[int, int]] = {}
        #: declared-benign byte ranges: (lo, hi, reason)
        self._exempt: list[tuple[int, int, str]] = []
        self.races: list[Race] = []
        self.stale_reads: list[StaleRead] = []
        self._seen: set[tuple[int, int, int]] = set()
        rt.race_detector = self

    # ------------------------------------------------------------------
    # benign-race annotations
    # ------------------------------------------------------------------

    def exempt(self, addr: int, words: int = 1, reason: str = "") -> None:
        """Declare ``words`` words at ``addr`` a documented benign race."""
        self._exempt.append((addr, addr + words * WORD_BYTES, reason))

    def _is_exempt(self, addr: int) -> bool:
        for lo, hi, _reason in self._exempt:
            if lo <= addr < hi:
                return True
        return False

    # ------------------------------------------------------------------
    # access recording (Env hooks)
    # ------------------------------------------------------------------

    def _record(self, addr: int, prev_pid: int, prev_kind: str,
                pid: int, kind: str) -> None:
        key = (addr, prev_pid, pid)
        if key in self._seen or len(self.races) >= MAX_RACES:
            return
        self._seen.add(key)
        self.races.append(
            Race(addr=addr, vpn=addr // self._page_size, prev_pid=prev_pid,
                 prev_kind=prev_kind, pid=pid, kind=kind)
        )

    def _record_stale(self, addr: int, pid: int, value: float,
                      writer: int, written: float) -> None:
        if len(self.stale_reads) >= MAX_RACES:
            return
        cluster_of = self._cluster_of
        self.stale_reads.append(
            StaleRead(addr=addr, vpn=addr // self._page_size, pid=pid,
                      cluster=cluster_of(pid), value=float(value),
                      writer=writer, writer_cluster=cluster_of(writer),
                      written=float(written))
        )

    def on_read(self, pid: int, addr: int, value: float) -> None:
        loc = addr // WORD_BYTES
        vc = self.clocks[pid]
        write = self._writes.get(loc)
        if write is not None:
            writer, clock, written = write
            if writer != pid and clock > vc[writer]:
                if not self._is_exempt(addr):
                    self._record(loc * WORD_BYTES, writer, "write", pid,
                                 "read")
            elif value != written and not self._is_exempt(addr):
                self._record_stale(loc * WORD_BYTES, pid, value, writer,
                                   written)
        readers = self._reads.get(loc)
        if readers is None:
            readers = self._reads[loc] = {}
        readers[pid] = vc[pid]

    def on_write(self, pid: int, addr: int, value: float) -> None:
        loc = addr // WORD_BYTES
        vc = self.clocks[pid]
        exempt = None  # resolved lazily; most accesses race nothing
        write = self._writes.get(loc)
        if write is not None:
            writer, clock, _written = write
            if writer != pid and clock > vc[writer]:
                exempt = self._is_exempt(addr)
                if not exempt:
                    self._record(loc * WORD_BYTES, writer, "write", pid,
                                 "write")
        readers = self._reads.get(loc)
        if readers:
            for reader, clock in sorted(readers.items()):
                if reader != pid and clock > vc[reader]:
                    if exempt is None:
                        exempt = self._is_exempt(addr)
                    if not exempt:
                        self._record(loc * WORD_BYTES, reader, "read", pid,
                                     "write")
            readers.clear()
        self._writes[loc] = (pid, vc[pid], value)

    # ------------------------------------------------------------------
    # Env instrumentation
    # ------------------------------------------------------------------

    def instrument(self, env: "Env") -> None:
        """Wrap the Env's bound memory operations with access recording.

        The wrappers delegate to the original (fast- or slow-path)
        generators via ``yield from`` and record each word, with the
        value read or written, after the access completes — by which
        point any mapping faults it triggered have resolved.  Nothing
        is charged and nothing is scheduled.
        """
        pid = env.pid
        on_read = self.on_read
        on_write = self.on_write
        inner_read = env.read
        inner_write = env.write
        inner_read_block = env.read_block
        inner_write_block = env.write_block
        inner_read_many = env.read_many

        def read(addr: int, ptr: bool = False):
            value = yield from inner_read(addr, ptr)
            on_read(pid, addr, value)
            return value

        def write(addr: int, value: float, ptr: bool = False):
            yield from inner_write(addr, value, ptr)
            on_write(pid, addr, value)

        def read_block(addr: int, nwords: int, ptr: bool = False):
            values = yield from inner_read_block(addr, nwords, ptr)
            for i, value in enumerate(values):
                on_read(pid, addr + i * WORD_BYTES, value)
            return values

        def write_block(addr: int, values, ptr: bool = False):
            yield from inner_write_block(addr, values, ptr)
            for i, value in enumerate(values):
                on_write(pid, addr + i * WORD_BYTES, value)

        def read_many(addrs: Iterable[int], ptr: bool = False):
            addrs = tuple(addrs)
            values = yield from inner_read_many(addrs, ptr)
            for a, value in zip(addrs, values):
                on_read(pid, a, value)
            return values

        env.read = read
        env.write = write
        env.read_block = read_block
        env.write_block = write_block
        env.read_many = read_many

    # ------------------------------------------------------------------
    # verdict
    # ------------------------------------------------------------------

    def certify(self) -> None:
        """Raise :class:`RaceError` unless the execution was race-free
        (modulo declared-benign exemptions) and every checked read
        returned the last write ordered before it."""
        if self.races or self.stale_reads:
            raise RaceError(self.races, self.stale_reads)
