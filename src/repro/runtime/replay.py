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
  simply never replay.
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

Records optionally **persist across processes**: when the run's
options name a store directory (``RunOptions.replay_cache``, set by
``REPRO_REPLAY_CACHE=1`` / ``REPRO_REPLAY_CACHE_DIR`` or the
``--replay-cache`` CLI flags), every recorded delta is also written to
a :class:`ReplayStore`, a keyed view of the content-addressed
:class:`repro.runtime.store.ContentStore` whose key is the SHA-256 of
(replay schema, source fingerprint, canonical run context, phase
digest), and every digest miss in the in-memory table falls through to
a store lookup.  A cold process — a fresh CLI run, a pool worker, a
``repro.serve`` job — then replays phases recorded by earlier runs or
by sibling sweep points whose state digests coincide.  Decoding is
defensive: an entry that is missing, truncated, schema-mismatched, or
shaped wrong for this run's statistic layout simply decodes to
``None``, the phase executes live, and the fresh recording overwrites
the bad entry (self-healing, exactly like the run cache).
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.runtime.store import (
    ContentStore,
    StoreStats,
    canonical_json,
    source_fingerprint,
)
from repro.sim.snapshot import digest

if TYPE_CHECKING:
    from repro.runtime.options import RunOptions
    from repro.runtime.runner import Runtime

__all__ = [
    "REPLAY_SCHEMA",
    "REPLAY_STORES",
    "PhaseRecorder",
    "ReplayStore",
    "record_from_payload",
    "record_to_payload",
    "replay_store_totals",
    "resolve_replay_store",
]

#: bump when the record payload layout or the replay key preimage
#: changes incompatibly (older entries then read as misses and are
#: overwritten by fresh recordings)
REPLAY_SCHEMA = 3


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
            rt.protocol.stats.counters,
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
            self.latencies.setdefault(k, []).extend(samples)
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
    #: whether this record was decoded from the persistent replay store
    #: (replays of such records count as cache hits)
    from_store: bool = False


def record_to_payload(rec: _PhaseRecord) -> dict:
    """JSON-safe encoding of one :class:`_PhaseRecord`.

    Every delta container is JSON-representable as-is except the
    int-keyed per-page nested dict (keys become decimal strings) and
    the flow 3-tuples (become lists), which ``record_from_payload``
    inverts; the machine state's tuples become lists, which
    ``Machine.set_state`` accepts as they are.
    """
    dints, dflats, dnested, dflows, dlats, dcounts = rec.stats
    return {
        "advance": rec.advance,
        "events": rec.events,
        "now_offset": rec.now_offset,
        "machine": rec.machine,
        "stats": {
            "ints": list(dints),
            "flats": [dict(d) for d in dflats],
            "nested": {str(k): dict(v) for k, v in dnested.items()},
            "flows": {k: list(v) for k, v in dflows.items()},
            "lats": {k: list(v) for k, v in dlats.items()},
            "counts": list(dcounts),
        },
    }


def record_from_payload(
    payload: dict, n_ints: int, n_counts: int, n_processors: int
) -> _PhaseRecord | None:
    """Decode a persisted record, or ``None`` when it cannot possibly
    belong to this run's statistic layout.

    The caller passes the live layout sizes (int-cell count, hardware
    access-class slot count, processor count); a payload whose vectors
    disagree was produced by different source or a different
    configuration that slipped past the context key, and decoding it
    would corrupt statistics silently — so any shape mismatch, missing
    key, or non-numeric leaf rejects the record and the phase executes
    live instead.
    """
    try:
        stats = payload["stats"]
        dints = [int(v) for v in stats["ints"]]
        dflats = [
            {str(k): int(v) for k, v in d.items()} for d in stats["flats"]
        ]
        dnested = {
            int(k): {str(kk): int(vv) for kk, vv in v.items()}
            for k, v in stats["nested"].items()
        }
        dflows = {}
        for k, v in stats["flows"].items():
            dc, db, dl = v
            dflows[str(k)] = (int(dc), int(db), int(dl))
        dlats = {
            str(k): [int(s) for s in v] for k, v in stats["lats"].items()
        }
        dcounts = [int(v) for v in stats["counts"]]
        procs, external, internal = payload["machine"]
        procs = tuple((int(free), int(stolen)) for free, stolen in procs)
        rec = _PhaseRecord(
            advance=int(payload["advance"]),
            events=int(payload["events"]),
            now_offset=int(payload["now_offset"]),
            machine=(procs, external, internal),
            stats=(dints, dflats, dnested, dflows, dlats, dcounts),
            from_store=True,
        )
    except (KeyError, TypeError, ValueError):
        return None
    if (
        len(rec.stats[0]) != n_ints
        or len(rec.stats[1]) != 4
        or len(rec.stats[5]) != n_counts
        or len(procs) != n_processors
    ):
        return None
    return rec


class PhaseRecorder:
    """Record-once / replay-many driver state for one phased runtime.

    ``store`` (a :class:`ReplayStore`, or None) persists records across
    processes.  The recorder asks the store for a context key derived
    from everything that pins the record layout and meaning: source
    fingerprint, full machine config and cost table, scheduling quantum,
    engine class, and the app-dependent statistic layout (lock count,
    int-cell count).  Two
    runs share records only when their context keys agree, so a digest
    can never be applied across engines, configs, or source revisions.
    """

    def __init__(self, rt: "Runtime", store: Any = None) -> None:
        self.rt = rt
        self.cells = _StatCells(rt)
        self.records: dict[str, _PhaseRecord] = {}
        #: phases applied in closed form / recorded for reuse
        self.replayed = 0
        self.recorded = 0
        self.store = store
        #: persistent-store traffic attributable to this run
        self.cache_loads = 0
        self.cache_hits = 0
        self.cache_stores = 0
        self._ctx = (
            store.context_key(self._context()) if store is not None else None
        )

    def _context(self) -> dict:
        """Canonical description of everything that pins record layout."""
        rt = self.rt
        return {
            "config": dataclasses.asdict(rt.config),
            "costs": dataclasses.asdict(rt.costs),
            "quantum": rt.quantum,
            "engine": type(rt.protocol).__name__,
            "n_locks": len(rt.locks),
            "n_cells": len(self.cells.ints),
        }

    def cache_summary(self) -> dict:
        """Replay activity of this run, for ``RunResult.replay_cache``."""
        return {
            "replayed": self.replayed,
            "recorded": self.recorded,
            "loads": self.cache_loads,
            "hits": self.cache_hits,
            "stores": self.cache_stores,
        }

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
        """Find a record for ``digest``: in-memory first, then the
        persistent store.  Store hits are decoded defensively and cached
        in the in-memory table so later phases of this run pay the file
        read once."""
        rec = self.records.get(digest)
        if rec is None and self.store is not None:
            payload = self.store.load(self._ctx, digest)
            if payload is not None:
                rec = record_from_payload(
                    payload,
                    n_ints=len(self.cells.ints),
                    n_counts=len(self.cells.cache_counts),
                    n_processors=len(self.rt.machine.processors),
                )
                if rec is not None:
                    self.records[digest] = rec
                    self.cache_loads += 1
        return rec

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
        if self.store is not None:
            self.store.put(self._ctx, digest, record_to_payload(rec))
            self.cache_stores += 1

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
        if rec.from_store:
            self.cache_hits += 1


class ReplayStore:
    """Persisted phase-replay records: a keyed view of one ContentStore.

    :meth:`context_key` hashes (replay schema, source fingerprint,
    canonical run context) once per run; an entry's key hashes that with
    the phase digest.  The context pins everything that gives a digest
    meaning — full machine config, cost table, quantum, engine class,
    statistic layout — and the source fingerprint retires every record
    the moment any simulator source file changes, exactly like the run
    cache.

    Decoded payloads are memoized per process (``_mem``), so a
    persistent pool worker serves its later jobs without re-reading
    files; content-addressed, so the memo is never invalidated.  A memo
    hit counts as a store hit: ``stats.hits`` is records read.
    """

    def __init__(self, root: str | Path, source: str | None = None) -> None:
        self.source = source if source is not None else source_fingerprint()
        self.store = ContentStore(root, REPLAY_SCHEMA, ("record",))
        self.root = self.store.root
        self.stats = self.store.stats
        self._mem: dict[str, dict] = {}

    def context_key(self, context: dict) -> str:
        """SHA-256 key of one run context (see class docstring)."""
        preimage = {
            "replay_schema": REPLAY_SCHEMA,
            "source": self.source,
            "context": context,
        }
        return hashlib.sha256(canonical_json(preimage).encode()).hexdigest()

    @staticmethod
    def _key(ctx: str, digest: str) -> str:
        return hashlib.sha256(f"{ctx}/{digest}".encode()).hexdigest()

    def load(self, ctx: str, digest: str) -> dict | None:
        """The persisted record payload for ``(ctx, digest)``, or None."""
        key = self._key(ctx, digest)
        payload = self._mem.get(key)
        if payload is not None:
            self.stats.add(hits=1)
            return payload
        entry = self.store.get(key)
        if entry is None:
            return None
        payload = self._mem[key] = entry["record"]
        return payload

    def put(self, ctx: str, digest: str, payload: dict) -> None:
        """Persist one record (atomic publish, deterministic bytes)."""
        key = self._key(ctx, digest)
        self.store.put(key, record=payload)
        self._mem[key] = payload


#: one store per directory per process, so every runtime resolving the
#: same directory (sweep points, a pool worker's later jobs) shares its
#: decoded-payload memo.  Clearing it models a cold process.
REPLAY_STORES: dict[Path, ReplayStore] = {}


def resolve_replay_store(options: RunOptions) -> ReplayStore | None:
    """This process's store for ``options.replay_cache`` (None: no store)."""
    root = options.replay_cache
    if root is None:
        return None
    store = REPLAY_STORES.get(root)
    if store is None:
        store = REPLAY_STORES[root] = ReplayStore(root)
    return store


def replay_store_totals() -> dict:
    """This process's replay-store traffic: the sum over REPLAY_STORES."""
    return StoreStats.total(s.stats for s in REPLAY_STORES.values()).as_dict()
