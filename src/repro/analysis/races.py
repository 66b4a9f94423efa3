"""Release-consistency race detection (vector clocks + access epochs).

MGS guarantees release consistency: a program free of data races —
conflicting accesses unordered by the happens-before relation induced by
its locks and barriers — observes sequentially consistent executions.
This module checks the *program* side of that contract, in the spirit of
Eraser/FastTrack (see PAPERS.md): every thread carries a vector clock
advanced at lock releases and barriers, every shared location carries
the epoch of its last writer plus the clocks of its current readers, and
a conflicting access not ordered by happens-before is recorded as a
:class:`Race`.

The detector is a pure observer.  It hooks the runtime's lock / unlock /
barrier handling (``runtime/runner.py``) and wraps the per-thread memory
operations bound by :class:`~repro.runtime.env.Env`; the wrappers
delegate to the original generators unchanged and charge no cycles, so
instrumented runs are cycle-identical to bare ones.

Locations are words: the paper's applications *rely* on page-level
false sharing (TSP's path-element pool) being benign, so two threads
touching different words of one page never race.  At most
:data:`MAX_RACES` distinct races are kept.  Deliberate, algorithmically
benign races (TSP's unlocked read of the monotonically tightening
incumbent bound) are declared with :meth:`RaceDetector.exempt` /
``Runtime.annotate_benign_race`` and documented in docs/ANALYSIS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.params import WORD_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.env import Env
    from repro.runtime.runner import Runtime

__all__ = ["Race", "RaceDetector", "RaceError"]

#: races recorded before the detector stops collecting new ones
MAX_RACES = 32


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


class RaceError(AssertionError):
    """Raised by :meth:`RaceDetector.certify` when races were recorded."""

    def __init__(self, races: Sequence[Race]) -> None:
        self.races = list(races)
        lines = [f"{len(races)} data race(s) detected:"]
        lines.extend(f"  {race.describe()}" for race in races)
        super().__init__("\n".join(lines))


class RaceDetector:
    """Happens-before race detection over one runtime's execution.

    Construction publishes the detector as ``rt.race_detector``; the
    runtime's lock/unlock/barrier handlers and every subsequently
    spawned :class:`Env` then feed it.  Attach *before* spawning
    threads (construction hooks and ``Runtime(analysis=...)`` both do).
    """

    def __init__(self, rt: "Runtime") -> None:
        self._page_size = rt.config.page_size
        n = rt.config.total_processors
        self._n = n
        #: per-thread vector clocks; C_u[u] starts at 1
        self._vc = [[1 if i == p else 0 for i in range(n)] for p in range(n)]
        #: per-lock clocks, keyed by lock_id
        self._locks: dict[int, list[int]] = {}
        #: last-writer epoch per location: loc -> (pid, clock)
        self._writes: dict[int, tuple[int, int]] = {}
        #: reader clocks per location: loc -> {pid: clock}
        self._reads: dict[int, dict[int, int]] = {}
        #: declared-benign byte ranges: (lo, hi, reason)
        self._exempt: list[tuple[int, int, str]] = []
        self.races: list[Race] = []
        self._seen: set[tuple[int, int, int]] = set()
        # barrier episode state
        self._barrier_pending = [0] * n
        self._barrier_clock = [0] * n
        self._barrier_arrived = 0
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
    # happens-before bookkeeping (runtime hooks)
    # ------------------------------------------------------------------

    def on_acquire(self, pid: int, lock_id: int) -> None:
        """Lock acquired: join the lock's clock into the thread's."""
        lock_clock = self._locks.get(lock_id)
        if lock_clock is not None:
            vc = self._vc[pid]
            for i, c in enumerate(lock_clock):
                if c > vc[i]:
                    vc[i] = c

    def on_release(self, pid: int, lock_id: int) -> None:
        """Release point: publish the thread's clock through the lock."""
        vc = self._vc[pid]
        self._locks[lock_id] = vc.copy()
        vc[pid] += 1

    def on_barrier_arrive(self, pid: int) -> None:
        """Barrier arrival: the release half of the barrier ordering."""
        vc = self._vc[pid]
        pending = self._barrier_pending
        for i, c in enumerate(vc):
            if c > pending[i]:
                pending[i] = c
        self._barrier_arrived += 1

    def on_barrier_depart(self, pid: int) -> None:
        """Barrier departure: the acquire half.

        Every participant arrives before any departs, so the first
        departure seals the episode's accumulated clock.
        """
        if self._barrier_arrived == self._n:
            self._barrier_clock = self._barrier_pending
            self._barrier_pending = [0] * self._n
            self._barrier_arrived = 0
        vc = self._vc[pid]
        for i, c in enumerate(self._barrier_clock):
            if c > vc[i]:
                vc[i] = c
        vc[pid] += 1

    # ------------------------------------------------------------------
    # access recording (Env hooks)
    # ------------------------------------------------------------------

    def _record(self, addr: int, vpn: int, prev_pid: int, prev_kind: str,
                pid: int, kind: str) -> None:
        key = (addr, prev_pid, pid)
        if key in self._seen or len(self.races) >= MAX_RACES:
            return
        self._seen.add(key)
        self.races.append(
            Race(addr=addr, vpn=vpn, prev_pid=prev_pid, prev_kind=prev_kind,
                 pid=pid, kind=kind)
        )

    def on_read(self, pid: int, addr: int) -> None:
        loc = addr // WORD_BYTES
        vc = self._vc[pid]
        write = self._writes.get(loc)
        if write is not None:
            writer, clock = write
            if writer != pid and clock > vc[writer]:
                if not self._is_exempt(addr):
                    self._record(loc * WORD_BYTES, addr // self._page_size,
                                 writer, "write", pid, "read")
        readers = self._reads.get(loc)
        if readers is None:
            readers = self._reads[loc] = {}
        readers[pid] = vc[pid]

    def on_write(self, pid: int, addr: int) -> None:
        loc = addr // WORD_BYTES
        vc = self._vc[pid]
        exempt = None  # resolved lazily; most accesses race nothing
        write = self._writes.get(loc)
        if write is not None:
            writer, clock = write
            if writer != pid and clock > vc[writer]:
                exempt = self._is_exempt(addr)
                if not exempt:
                    self._record(loc * WORD_BYTES, addr // self._page_size,
                                 writer, "write", pid, "write")
        readers = self._reads.get(loc)
        if readers:
            for reader, clock in sorted(readers.items()):
                if reader != pid and clock > vc[reader]:
                    if exempt is None:
                        exempt = self._is_exempt(addr)
                    if not exempt:
                        self._record(loc * WORD_BYTES,
                                     addr // self._page_size,
                                     reader, "read", pid, "write")
            readers.clear()
        self._writes[loc] = (pid, vc[pid])

    def _on_range(self, pid: int, addr: int, nwords: int, write: bool) -> None:
        record = self.on_write if write else self.on_read
        for a in range(addr, addr + nwords * WORD_BYTES, WORD_BYTES):
            record(pid, a)

    # ------------------------------------------------------------------
    # Env instrumentation
    # ------------------------------------------------------------------

    def instrument(self, env: "Env") -> None:
        """Wrap the Env's bound memory operations with access recording.

        The wrappers delegate to the original (fast- or slow-path)
        generators via ``yield from`` and record after the access
        completes — by which point any mapping faults it triggered have
        resolved.  Nothing is charged and nothing is scheduled.
        """
        pid = env.pid
        inner_read = env.read
        inner_write = env.write
        inner_read_block = env.read_block
        inner_write_block = env.write_block
        inner_read_many = env.read_many

        def read(addr: int, ptr: bool = False):
            value = yield from inner_read(addr, ptr)
            self.on_read(pid, addr)
            return value

        def write(addr: int, value: float, ptr: bool = False):
            yield from inner_write(addr, value, ptr)
            self.on_write(pid, addr)

        def read_block(addr: int, nwords: int, ptr: bool = False):
            values = yield from inner_read_block(addr, nwords, ptr)
            self._on_range(pid, addr, nwords, write=False)
            return values

        def write_block(addr: int, values, ptr: bool = False):
            yield from inner_write_block(addr, values, ptr)
            self._on_range(pid, addr, len(values), write=True)

        def read_many(addrs: Iterable[int], ptr: bool = False):
            addrs = tuple(addrs)
            values = yield from inner_read_many(addrs, ptr)
            for a in addrs:
                self.on_read(pid, a)
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
        (modulo declared-benign exemptions)."""
        if self.races:
            raise RaceError(self.races)
