"""The simulated DSSMP: processors, clusters, and the two networks.

A :class:`Machine` binds a :class:`~repro.sim.Simulator` to a
:class:`~repro.params.MachineConfig` and provides the message substrate the
MGS protocol engines run on.  Two latency regimes exist, mirroring the
paper's Figure 1:

* **internal network** — messages between processors of the same SSMP are
  active messages over Alewife's mesh; we charge a small wire latency.
* **external network** — messages that cross an SSMP boundary pay the
  configurable ``inter_ssmp_delay`` (the paper's LAN model: a fixed
  latency, no contention, exactly as in section 4.2.2).

All routing is delegated to the pluggable :mod:`repro.net` subsystem —
topology/contention models behind the :class:`~repro.net.Interconnect`
interface, deterministic fault injection, and a reliable-delivery
transport — selected by :class:`~repro.params.NetworkConfig`.  With the
default configuration every message takes the same single-event path the
paper's model took, bit for bit.  The machine tabulates once the delay
of every route that is such a path — each intra-SSMP pair, and each
inter-SSMP pair when the external network is uncontended with no fault
injection and no transport — and :meth:`Machine.send` on such a route is
one table lookup plus one push onto the simulator's event heap.

Handler model: a message handler runs at its arrival time, applies its
state effects, and calls :meth:`Machine.occupy` with the handler's cycle
cost.  ``occupy`` serializes handler execution per processor (one handler
context drains at a time) and returns the completion time at which the
handler schedules its own continuations (replies, wake-ups).  Handler
cycles are recorded as "stolen" time so the thread driver can charge them
against the application thread running on that processor, in the MGS
bucket of the runtime breakdown — this is how the paper's software-
coherence load imbalance (section 5.2.1, Water) emerges in the model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heappush
from typing import Any, Callable

from repro.net import FaultInjector, ReliableTransport, build_external, build_internal
from repro.params import CostModel, MachineConfig
from repro.sim import Simulator

__all__ = ["Machine", "MessageStats", "ProcessorState"]


@dataclass
class ProcessorState:
    """Bookkeeping for one simulated processor."""

    pid: int
    cluster: int
    #: time at which the processor's handler context becomes free
    handler_free_at: int = 0
    #: handler cycles accumulated since the app thread last absorbed them
    stolen_cycles: int = 0
    #: lifetime handler cycles (statistics)
    handler_cycles_total: int = 0
    #: messages handled on this processor
    messages_handled: int = 0

    def state(self, base: int) -> tuple:
        """Handler busy-until (relative to ``base``, clamped) and the
        stolen cycles the thread has yet to absorb."""
        return (max(0, self.handler_free_at - base), self.stolen_cycles)


@dataclass
class MessageStats:
    """Counts of protocol messages, split by network, plus the per-layer
    counters the :mod:`repro.net` subsystem merges in."""

    inter_ssmp: int = 0
    intra_ssmp: int = 0
    #: bytes shipped over the external network
    inter_ssmp_bytes: int = 0
    by_label: Counter = field(default_factory=Counter)
    #: cycles inter-SSMP messages spent queued behind earlier traffic, by
    #: link (one entry for "bus", one per fabric pair): the external
    #: model's own ``queue_cycles`` counter
    queue_cycles_by_link: Counter = field(default_factory=Counter)
    #: datagrams actually put on the external wire (retransmissions,
    #: acks, and injected duplicates included; drops excluded)
    wire_messages: int = 0
    # --- fault-injection layer ---
    drops: int = 0
    dups_injected: int = 0
    delays_injected: int = 0
    # --- reliable-transport layer ---
    retransmits: int = 0
    retransmits_by_link: Counter = field(default_factory=Counter)
    acks_sent: int = 0
    dups_suppressed: int = 0

    @property
    def lan_queue_cycles(self) -> int:
        """Total queue cycles over every external link (nonzero only for
        contended external models: bus, fabric)."""
        return sum(self.queue_cycles_by_link.values())

    def network_summary(self) -> dict:
        """JSON-ready roll-up for ``metrics.export``."""
        return {
            "inter_ssmp": self.inter_ssmp,
            "intra_ssmp": self.intra_ssmp,
            "inter_ssmp_bytes": self.inter_ssmp_bytes,
            "wire_messages": self.wire_messages,
            "queue_cycles": self.lan_queue_cycles,
            "queue_cycles_by_link": dict(self.queue_cycles_by_link),
            "drops": self.drops,
            "dups_injected": self.dups_injected,
            "delays_injected": self.delays_injected,
            "retransmits": self.retransmits,
            "retransmits_by_link": dict(self.retransmits_by_link),
            "acks_sent": self.acks_sent,
            "dups_suppressed": self.dups_suppressed,
        }


class Machine:
    """A DSSMP built from ``config.num_clusters`` SSMPs.

    The machine knows nothing about pages or coherence; it only delivers
    messages with the right latency and serializes handler occupancy per
    destination processor.  Latency, contention, loss, and recovery all
    live in :mod:`repro.net`.
    """

    def __init__(self, sim: Simulator, config: MachineConfig, costs: CostModel) -> None:
        self.sim = sim
        self.config = config
        self.costs = costs
        self.processors = [
            ProcessorState(pid=p, cluster=config.cluster_of(p))
            for p in range(config.total_processors)
        ]
        #: cluster of each processor, indexed by pid
        self.clusters = [p.cluster for p in self.processors]
        net = config.network
        self.net_config = net
        self.internal = build_internal(net, config)
        self.external = build_external(net, config)
        self.stats = MessageStats(queue_cycles_by_link=self.external.queue_cycles)
        self.faults = FaultInjector(net) if net.faults_enabled else None
        self.transport = (
            ReliableTransport(self, net, config) if net.reliable_effective else None
        )
        self._control_bytes = config.control_msg_bytes
        #: whether inter-SSMP messages stage through ``repro.net`` (a
        #: contended external model, fault injection or the reliable
        #: transport) rather than take one fixed-delay event
        self._staged = (
            self.external.contended
            or self.faults is not None
            or self.transport is not None
        )
        #: ``routes[src][dst]``: the arrival delay of a ``src``→``dst``
        #: message on every route that is one event with a fixed,
        #: size-independent delay: each intra-SSMP pair (internal models
        #: are uncontended), and each inter-SSMP pair unless the machine
        #: is :attr:`_staged`, where those entries are ``None``.
        clusters = self.clusters
        size = self._control_bytes

        def delay(src: int, dst: int) -> int | None:
            if clusters[src] == clusters[dst]:
                return self.internal.transit(src, dst, size, 0)
            if self._staged:
                return None
            return self.external.transit(clusters[src], clusters[dst], size, 0)

        pids = range(config.total_processors)
        self.routes = [[delay(src, dst) for dst in pids] for src in pids]

    def close(self) -> None:
        """Cut the reliable transport's back-reference to this machine
        (see :meth:`repro.runtime.runner.Runtime.close`)."""
        if self.transport is not None:
            self.transport.machine = None

    def external_link(self, src: int, dst: int) -> str:
        """Stats key of the external link a ``src``→``dst`` message uses."""
        return self.external.link_name(self.clusters[src], self.clusters[dst])

    def send(
        self,
        src: int,
        dst: int,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        label: str = "msg",
        at: int | None = None,
        size: int | None = None,
    ) -> None:
        """Send a message from processor ``src`` to processor ``dst``.

        ``fn(*args)`` runs at the arrival time; it is responsible for
        calling :meth:`occupy` with its handler cost and for scheduling
        any continuations at the returned completion time.  ``args`` is
        the callback's argument tuple.  A message on a tabulated route
        (:attr:`routes`) is one table lookup and one push onto the
        simulator's heap: the ``(time, seq)`` entry
        ``Simulator.schedule_at`` would make, with no call between.

        Args:
            label: statistics key of the message.
            at: send time; defaults to ``sim.now``.  Threads running ahead
                of the global clock inside a quantum pass their local time.
            size: message size in bytes (control messages default to
                ``config.control_msg_bytes``; data-carrying messages pass
                their payload size).  Only matters to contended
                interconnect models.
        """
        stats = self.stats
        sim = self.sim
        if at is None:
            at = sim.now
        if size is None:
            size = self._control_bytes
        stats.by_label[label] += 1
        if self.clusters[src] == self.clusters[dst]:
            stats.intra_ssmp += 1
        else:
            stats.inter_ssmp += 1
            stats.inter_ssmp_bytes += size
            if self._staged:
                if self.transport is not None:
                    self.transport.send(src, dst, fn, args, label, at, size)
                else:
                    self._transmit_external(src, dst, fn, args, at, size)
                return
            stats.wire_messages += 1
        arrival = at + self.routes[src][dst]
        if arrival < sim.now:
            raise ValueError(
                f"cannot schedule into the past (time={arrival}, now={sim.now})"
            )
        heappush(sim._heap, (arrival, sim._seq, fn, args))
        sim._seq += 1

    def _transmit_external(
        self,
        src: int,
        dst: int,
        fn: Callable[..., None],
        args: tuple[Any, ...],
        time: int,
        size: int,
    ) -> None:
        """Put one datagram on the external wire (fault layer included).

        The transport retransmits through this same path, so every copy —
        original, duplicate, retransmission, ack — faces the same faults
        and the same contention.
        """
        src_c = self.clusters[src]
        dst_c = self.clusters[dst]
        entries = [time]
        if self.faults is not None:
            decision = self.faults.decide(self.external.link_name(src_c, dst_c), time)
            self.stats.drops += decision.dropped
            self.stats.dups_injected += decision.duplicated
            self.stats.delays_injected += decision.delayed
            entries = decision.entries
        for entry in entries:
            self.stats.wire_messages += 1
            if self.external.contended:
                # Two-stage delivery: reserve the link *at* the wire-entry
                # time, inside the event queue, so reservations happen in
                # deterministic (time, seq) order regardless of the order
                # threads called send with future timestamps.
                self.sim.schedule_at(
                    entry, self._enter_external, src_c, dst_c, fn, args, size
                )
            else:
                arrival = self.external.transit(src_c, dst_c, size, entry)
                self.sim.schedule_at(arrival, fn, *args)

    def _enter_external(
        self,
        src_c: int,
        dst_c: int,
        fn: Callable[..., None],
        args: tuple[Any, ...],
        size: int,
    ) -> None:
        arrival = self.external.transit(src_c, dst_c, size, self.sim.now)
        self.sim.schedule_at(arrival, fn, *args)

    def occupy(self, pid: int, cycles: int) -> int:
        """Charge ``cycles`` of handler execution to processor ``pid``.

        Serializes with other handlers on the same processor: execution
        begins no earlier than the previous handler's completion.  Returns
        the completion time, at which the caller should schedule replies.
        """
        proc = self.processors[pid]
        start = self.sim.now
        if proc.handler_free_at > start:
            start = proc.handler_free_at
        finish = start + cycles
        proc.handler_free_at = finish
        proc.stolen_cycles += cycles
        proc.handler_cycles_total += cycles
        proc.messages_handled += 1
        return finish

    def take_stolen(self, pid: int) -> int:
        """Drain and return the stolen handler cycles of processor ``pid``."""
        proc = self.processors[pid]
        stolen = proc.stolen_cycles
        proc.stolen_cycles = 0
        return stolen

    def state(self, base: int) -> tuple:
        """Per-processor handler state plus both networks' reservations,
        clocks relative to ``base``."""
        return (
            tuple(p.state(base) for p in self.processors),
            self.external.state(base),
            self.internal.state(base),
        )

    def set_state(self, base: int, state) -> None:
        """Inverse of :meth:`state`: re-anchor every clock at ``base``."""
        procs, external, internal = state
        for proc, (free, stolen) in zip(self.processors, procs):
            proc.handler_free_at = base + free
            proc.stolen_cycles = stolen
        self.external.set_state(base, external)
        self.internal.set_state(base, internal)

    def network_summary(self) -> dict:
        """Model names plus every ``repro.net`` counter, for export."""
        out = {
            "external_model": self.external.name,
            "internal_model": self.internal.name,
            "reliable_transport": self.transport is not None,
        }
        out.update(self.stats.network_summary())
        if self.faults is not None:
            out["faults_by_link"] = {
                link: {
                    "transmissions": self.faults.transmissions[link],
                    "drops": self.faults.drops[link],
                    "dups": self.faults.dups[link],
                    "delays": self.faults.delays[link],
                }
                for link in sorted(self.faults.transmissions)
            }
        return out
