"""The typed protocol message bus.

No coherence engine calls :meth:`Machine.send` directly: every message
is a slotted dataclass, never mutated after send (MGS's Table 2 set from
:mod:`repro.core.messages`, each baseline's own from its
``messages.py``), built and routed by one :class:`MessageBus`.  The bus

* **builds every message** — :meth:`MessageBus.send` makes it from
  its class, page, endpoint pids and transaction (the cluster fields
  follow from the pids), and :meth:`MessageBus.reply` answers an
  incoming message with its endpoints swapped;
* owns **handler registration** — engines mark methods with the
  message classes they handle, ``@handles(Rreq, Wreq)``, and
  :meth:`MessageBus.register` builds the label-keyed dispatch table,
  refusing a second handler for a label.  The marks are the one
  declaration of an engine's vocabulary; the conformance test
  (``tests/test_protocol_conformance.py``) holds them to the engine's
  arc-rule table and to every message class in the tree;
* routes through one positional ``Machine.send`` (and therefore
  :mod:`repro.net`) — one simulator event per message on the default
  network, same label, same wire size, so the default-configuration
  cycle counts are bit-for-bit those of the hand-wired callbacks it
  replaced; the bus keeps its machine's ``sim`` and ``cluster_size`` at
  hand, since every send and delivery reads them;
* auto-records **per-type observability** — delivered message counts,
  wire bytes, and wire latency per message label, plus the
  per-transaction latency log behind the fault/release percentiles in
  ``RunResult`` (see :mod:`repro.metrics.transactions`);
* exposes **tap hooks** — :meth:`add_tap` observes every delivered
  message, :meth:`add_txn_tap` every transaction begin/end; the
  :class:`~repro.trace.ProtocolTracer` is nothing but a pair of taps.

Transactions
------------

A *transaction* is one runtime-visible protocol operation: a mapping
fault or a release point.  :meth:`begin` assigns a monotonically
increasing id when the operation enters the protocol; every message sent
on the operation's behalf carries that id in its ``txn`` field (through
request/grant chains, invalidation rounds, and coalesced releases), and
:meth:`end` closes the transaction when the operation's completion
callback fires.  The closed latency samples feed the p50/p95/max
histograms exported by ``metrics``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.messages import ProtocolMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine import Machine
    from repro.params import MachineConfig

__all__ = ["MessageBus", "MessageFlow", "Transaction", "handles"]


def handles(*classes: type[ProtocolMessage]) -> Callable:
    """Mark an engine method as the handler for the given message classes.

    The mark keys on each class's ``label``, the wire label the bus
    dispatches and counts flows by.  It is inert until the engine is
    passed to :meth:`MessageBus.register`.
    """
    keys = tuple(cls.label for cls in classes)

    def mark(fn: Callable) -> Callable:
        fn._bus_handles = keys
        return fn

    return mark


@dataclass(slots=True)
class MessageFlow:
    """Delivered-message statistics for one message type."""

    count: int = 0
    bytes: int = 0
    #: total send->delivery cycles (includes queueing, faults, recovery)
    latency_cycles: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "count": self.count,
            "bytes": self.bytes,
            "latency_cycles": self.latency_cycles,
        }


@dataclass(slots=True)
class Transaction:
    """One protocol operation, from runtime entry to completion."""

    txn: int
    kind: str  # "fault" or "release"
    pid: int
    vpn: int  # -1 for release operations (they span pages)
    start: int
    note: str = ""
    end: int | None = None
    #: messages delivered on this transaction's behalf
    messages: int = 0

    @property
    def latency(self) -> int:
        assert self.end is not None
        return self.end - self.start


class MessageBus:
    """Typed dispatch, observability, and transaction bookkeeping."""

    def __init__(self, machine: "Machine", config: "MachineConfig") -> None:
        self.machine = machine
        self.config = config
        self.sim = machine.sim
        self.cluster_size = config.cluster_size
        self._handlers: dict[str, Callable[[Any], None]] = {}
        self._taps: list[Callable[[ProtocolMessage, int, int], None]] = []
        self._txn_taps: list[Callable[[str, Transaction], None]] = []
        self.flows: dict[str, MessageFlow] = {}
        self._next_txn = 0
        self.open_txns: dict[int, Transaction] = {}
        #: closed-transaction latency samples, per kind, as machine
        #: integers: one per fault and release, the biggest log a run keeps
        self.latencies: dict[str, array] = {}

    # ------------------------------------------------------------------
    # handler registration
    # ------------------------------------------------------------------

    def register(self, engine: Any) -> None:
        """Bind every ``@handles``-marked method of ``engine``."""
        for cls in type(engine).__mro__:
            for name, fn in vars(cls).items():
                keys = getattr(fn, "_bus_handles", None)
                if keys is None:
                    continue
                bound = getattr(engine, name)
                for key in keys:
                    if key in self._handlers:
                        raise ValueError(
                            f"duplicate handler for {key}: "
                            f"{self._handlers[key]} and {bound}"
                        )
                    self._handlers[key] = bound

    def close(self) -> None:
        """Unbind the handlers and taps, which are bound methods of the
        engines and observers that hold this bus; flows and latency
        samples stay."""
        self._handlers.clear()
        self._taps.clear()
        self._txn_taps.clear()

    def handled_labels(self) -> set[str]:
        """Labels with a registered handler."""
        return set(self._handlers)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(
        self,
        cls: type[ProtocolMessage],
        vpn: int,
        src_pid: int,
        dst_pid: int,
        txn: int,
        at: int | None = None,
        **fields: Any,
    ) -> None:
        """Build a ``cls`` message and route it to its destination's
        registered handler.

        The one place messages are made: both cluster fields are derived
        from the pids, and ``fields`` fill the class's payload.  One
        ``Machine.send`` — the message travels the interconnect
        (latency, contention, faults, reliable transport) exactly as the
        positional-callback sends it replaced did.
        """
        label = cls.label
        if label not in self._handlers:
            raise LookupError(f"no handler registered for {label}")
        cluster_size = self.cluster_size
        # Positional, in ProtocolMessage's field order: the cheapest
        # construction, on the path every message takes.
        msg = cls(
            vpn,
            src_pid,
            src_pid // cluster_size,
            dst_pid,
            dst_pid // cluster_size,
            txn,
            **fields,
        )
        sent_at = self.sim.now if at is None else at
        size = msg.wire_bytes(self.config)
        self.machine.send(
            src_pid, dst_pid, self._deliver, (msg, sent_at, size), label, sent_at, size
        )

    def reply(
        self,
        cls: type[ProtocolMessage],
        to: ProtocolMessage,
        at: int | None = None,
        **fields: Any,
    ) -> None:
        """Answer ``to`` with a ``cls`` message on the same page and
        transaction, its endpoints swapped.

        One call more than :meth:`send`, so the MGS engines, whose
        message path sets the protocol-bound figures' host time, call
        :meth:`send` directly.
        """
        self.send(cls, to.vpn, to.dst_pid, to.src_pid, to.txn, at, **fields)

    def _deliver(self, msg: ProtocolMessage, sent_at: int, size: int) -> None:
        now = self.sim.now
        label = msg.label
        flow = self.flows.get(label)
        if flow is None:
            flow = self.flows[label] = MessageFlow()
        flow.count += 1
        flow.bytes += size
        flow.latency_cycles += now - sent_at
        txn = self.open_txns.get(msg.txn)
        if txn is not None:
            txn.messages += 1
        for tap in self._taps:
            tap(msg, sent_at, now)
        self._handlers[label](msg)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self, kind: str, pid: int, vpn: int = -1, note: str = "") -> int:
        """Open a transaction; returns the id its messages must carry."""
        txn = self._next_txn
        self._next_txn += 1
        rec = Transaction(txn, kind, pid, vpn, self.sim.now, note)
        self.open_txns[txn] = rec
        for tap in self._txn_taps:
            tap("begin", rec)
        return txn

    def end(self, txn: int) -> None:
        """Close a transaction and record its latency sample."""
        rec = self.open_txns.pop(txn, None)
        if rec is None:
            return
        rec.end = self.sim.now
        samples = self.latencies.get(rec.kind)
        if samples is None:
            samples = self.latencies[rec.kind] = array("q")
        samples.append(rec.latency)
        for tap in self._txn_taps:
            tap("end", rec)

    def state(self) -> tuple:
        """Open transactions in txn (= insertion) order, without their
        raw ids: a global counter, so equal states may differ in ids."""
        return tuple(
            (rec.kind, rec.pid, rec.vpn, rec.note)
            for rec in self.open_txns.values()
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def add_tap(self, tap: Callable[[ProtocolMessage, int, int], None]) -> None:
        """Observe every delivered message: ``tap(msg, sent_at, now)``."""
        self._taps.append(tap)

    def add_txn_tap(self, tap: Callable[[str, Transaction], None]) -> None:
        """Observe transaction lifecycle: ``tap("begin"|"end", record)``."""
        self._txn_taps.append(tap)

    def remove_tap(self, tap: Callable[[ProtocolMessage, int, int], None]) -> None:
        """Detach a message tap added with :meth:`add_tap`."""
        self._taps.remove(tap)

    def remove_txn_tap(self, tap: Callable[[str, Transaction], None]) -> None:
        """Detach a transaction tap added with :meth:`add_txn_tap`."""
        self._txn_taps.remove(tap)

    def flow_summary(self) -> dict[str, dict[str, int]]:
        """Per-message-type counts/bytes/latency, JSON-ready."""
        return {label: f.as_dict() for label, f in sorted(self.flows.items())}

    def transaction_summary(self) -> dict[str, dict[str, float]]:
        """Fault/release latency percentiles, JSON-ready."""
        from repro.metrics.transactions import latency_summary

        return {
            kind: latency_summary(samples)
            for kind, samples in sorted(self.latencies.items())
        }
