"""Closed-form phase replay: stop re-simulating proven-deterministic work.

Phased applications (:meth:`repro.runtime.runner.Runtime.spawn_phases`)
execute as a sequence of barrier-delimited phases, each driven by a fresh
generator.  Because the simulator is deterministic, a phase's entire
effect is a pure function of the machine state it starts from: if the
state at a phase boundary has been seen before, the phase will replay
the exact same events, charge the exact same cycles, and land in the
exact same successor state.  This module makes that observation
executable:

* :meth:`PhaseRecorder.state_digest` hashes the phase key together
  with :meth:`repro.runtime.runner.Runtime.snapshot` at a phase
  boundary, clock-like values relative to the earliest thread clock
  (no future event can be scheduled before it, so any value at or
  before it means "free now").  Engines whose
  :meth:`repro.core.engine.Protocol.phase_state` returns ``None``
  simply never replay.  Only a phase whose key occurs more than once
  in the run is digested: a phase with a unique key could never be
  looked up again.
* The first time a phase executes from a given digest, the recorder
  captures its full effect as a delta: the per-thread cycle-bucket
  advances, the event count, and the change in every statistic the
  simulation reports (coherence class counts, message flows and
  transaction-latency samples, protocol counters, per-page stats,
  handler totals, TLB fill counts, lock and barrier counters).
* A phase is **replayable** only when its recorded execution left the
  digest unchanged — a state-idempotent phase.  Replay application is
  then a pure time translation: advance every clock by the recorded
  span, add the recorded statistics, and skip the events.  Nothing needs
  to be restored, so nothing can be restored incorrectly.

Replay is automatically disabled when fault injection or the reliable
transport is active (their behavior depends on absolute counters the
digest cannot translate) and when the analysis checkers are attached
(they observe the messages replay elides).  ``RunOptions(replay=False)``
(``REPRO_NO_REPLAY=1``, ``--no-replay``) — the escape hatch mirroring
the fast-path one — turns it off; ``tests/test_replay.py`` pins
replay-on against replay-off bit-for-bit for every registered engine.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import TYPE_CHECKING, Any

from repro.sim.snapshot import digest

if TYPE_CHECKING:
    from repro.runtime.runner import Runtime

__all__ = ["PhaseRecorder"]


class _StatCells:
    """Live references to every statistic a phase can change.

    The recorder snapshots these before an execution, computes the delta
    afterwards, and re-applies the delta on replay.  Statistics are
    *excluded* from the state digest (a monotone counter would make every
    phase unique); carrying them in the delta keeps a replayed run's
    :class:`~repro.runtime.runner.RunResult` identical to an executed
    one's.
    """

    def __init__(self, rt: "Runtime") -> None:
        machine = rt.machine
        bus = rt.protocol.bus
        # (obj, attr) pairs holding plain integer counters.
        self.ints: list[tuple[Any, str]] = []
        for f in dataclasses.fields(type(machine.stats)):
            if isinstance(getattr(machine.stats, f.name), int):
                self.ints.append((machine.stats, f.name))
        for proc in machine.processors:
            self.ints.append((proc, "handler_cycles_total"))
            self.ints.append((proc, "messages_handled"))
        for tlb in rt.protocol.tlbs:
            self.ints.append((tlb, "fills"))
            self.ints.append((tlb, "invalidations"))
        for lk in rt.locks:
            for attr in ("acquires", "hits", "token_transfers"):
                self.ints.append((lk.stats, attr))
        self.ints.append((rt.barrier_obj, "episodes"))
        self.ints.append((bus, "_next_txn"))
        for t in rt.threads:
            for attr in ("user", "lock", "barrier", "mgs"):
                self.ints.append((t, attr))
        self.ints.extend(rt.protocol.phase_stat_cells())
        # Flat ``key -> int`` dicts (Counters included).
        self.flats: list[dict] = [
            machine.stats.by_label,
            machine.stats.queue_cycles_by_link,
            machine.stats.retransmits_by_link,
            rt.protocol.stats,
        ]
        #: ``key -> {key -> int}`` (per-page protocol event counts)
        self.nested: dict = rt.protocol.page_stats
        #: per-MsgType delivered count/bytes/latency records
        self.flows: dict = bus.flows
        #: append-only transaction latency sample logs
        self.latencies: dict = bus.latencies
        #: fixed-slot hardware access-class counters
        self.cache_counts: list[int] = rt.cache._counts

    def snapshot(self) -> tuple:
        return (
            [getattr(obj, attr) for obj, attr in self.ints],
            [dict(d) for d in self.flats],
            {k: dict(v) for k, v in self.nested.items()},
            {k: (f.count, f.bytes, f.latency_cycles) for k, f in self.flows.items()},
            {k: len(v) for k, v in self.latencies.items()},
            list(self.cache_counts),
        )

    def delta(self, pre: tuple) -> tuple:
        """Difference between the live state and the ``pre`` snapshot."""
        ints0, flats0, nested0, flows0, lats0, counts0 = pre
        dints = [
            getattr(obj, attr) - v0 for (obj, attr), v0 in zip(self.ints, ints0)
        ]
        dflats = []
        for live, d0 in zip(self.flats, flats0):
            dflats.append(
                {k: v - d0.get(k, 0) for k, v in live.items() if v != d0.get(k, 0)}
            )
        dnested = {}
        for k, inner in self.nested.items():
            i0 = nested0.get(k, {})
            diff = {kk: v - i0.get(kk, 0) for kk, v in inner.items() if v != i0.get(kk, 0)}
            if diff:
                dnested[k] = diff
        dflows = {}
        for k, f in self.flows.items():
            c0, b0, l0 = flows0.get(k, (0, 0, 0))
            if (f.count, f.bytes, f.latency_cycles) != (c0, b0, l0):
                dflows[k] = (f.count - c0, f.bytes - b0, f.latency_cycles - l0)
        dlats = {}
        for k, samples in self.latencies.items():
            n0 = lats0.get(k, 0)
            if len(samples) > n0:
                dlats[k] = list(samples[n0:])
        dcounts = [v - v0 for v, v0 in zip(self.cache_counts, counts0)]
        return (dints, dflats, dnested, dflows, dlats, dcounts)

    def apply(self, delta: tuple) -> None:
        from repro.core.bus import MessageFlow

        dints, dflats, dnested, dflows, dlats, dcounts = delta
        for (obj, attr), d in zip(self.ints, dints):
            if d:
                setattr(obj, attr, getattr(obj, attr) + d)
        for live, dd in zip(self.flats, dflats):
            for k, d in dd.items():
                live[k] = live.get(k, 0) + d
        for k, dd in dnested.items():
            inner = self.nested.setdefault(k, {})
            for kk, d in dd.items():
                inner[kk] = inner.get(kk, 0) + d
        for k, (dc, db, dl) in dflows.items():
            f = self.flows.get(k)
            if f is None:
                f = self.flows[k] = MessageFlow()
            f.count += dc
            f.bytes += db
            f.latency_cycles += dl
        for k, samples in dlats.items():
            self.latencies.setdefault(k, array("q")).extend(samples)
        for i, d in enumerate(dcounts):
            if d:
                self.cache_counts[i] += d


@dataclasses.dataclass
class _PhaseRecord:
    """One recorded state-idempotent phase, ready for closed-form apply."""

    #: cycles every thread clock advances (identical across threads —
    #: the digest pins the relative skews)
    advance: int
    #: simulator events the phase processed
    events: int
    #: simulator clock at phase end, relative to the phase-end base
    now_offset: int
    #: ``Machine.state`` at phase end, relative to the phase-end base
    machine: tuple
    #: statistics delta (see :class:`_StatCells`)
    stats: tuple


class PhaseRecorder:
    """Record-once / replay-many driver state for one phased runtime."""

    def __init__(self, rt: "Runtime") -> None:
        self.rt = rt
        self.cells = _StatCells(rt)
        self.records: dict[str, _PhaseRecord] = {}
        #: phases applied in closed form / recorded for reuse
        self.replayed = 0
        self.recorded = 0

    def close(self) -> None:
        """Drop the runtime and the records (``Runtime.close``); the
        ``replayed`` and ``recorded`` counts stay."""
        self.rt = self.cells = None
        self.records.clear()

    def cache_summary(self) -> dict:
        """Replay activity of this run, for ``RunResult.replay_cache``."""
        return {"replayed": self.replayed, "recorded": self.recorded}

    # -- digest --------------------------------------------------------

    def state_digest(self, phase_key: Any) -> tuple[str, int] | None:
        """Digest of ``phase_key`` plus the machine snapshot at the
        earliest thread clock, or None when the engine opts out;
        returns ``(digest, base_time)``."""
        rt = self.rt
        base = min(t.time for t in rt.threads)
        snap = rt.snapshot(base)
        if snap["engine"] is None:
            return None
        return digest((phase_key, snap)), base

    # -- record / replay -----------------------------------------------

    def lookup(self, digest: str) -> _PhaseRecord | None:
        """The record for ``digest``, or None."""
        return self.records.get(digest)

    def record(
        self, digest: str, pre_snapshot: tuple, pre_base: int, events: int
    ) -> None:
        """Store the just-executed phase's effect under ``digest``."""
        rt = self.rt
        post_base = min(t.time for t in rt.threads)
        rec = _PhaseRecord(
            advance=post_base - pre_base,
            events=events,
            now_offset=rt.sim.now - post_base,
            machine=rt.machine.state(post_base),
            stats=self.cells.delta(pre_snapshot),
        )
        self.records[digest] = rec
        self.recorded += 1

    def apply(self, rec: _PhaseRecord) -> None:
        """Apply a recorded phase as a pure time translation."""
        rt = self.rt
        d = rec.advance
        for t in rt.threads:
            t.time += d
            t.last_yield += d
            t.finish_time = t.time
        new_base = min(t.time for t in rt.threads)
        rt.machine.set_state(new_base, rec.machine)
        rt.sim.replay_advance(new_base + rec.now_offset, rec.events)
        self.cells.apply(rec.stats)
        self.replayed += 1
