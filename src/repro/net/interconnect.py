"""Topology and contention models for the two DSSMP networks.

Every model implements the :class:`Interconnect` interface.  Two node
spaces exist, mirroring the paper's Figure 1:

* **internal** models route between *processors of one SSMP* and are
  stateless (hardware networks are not a contended resource at the
  grain this simulator models), so the machine tabulates their delays
  once: :class:`Wire` charges the fixed
  ``intra_wire_latency``; :class:`Mesh2D` adds an Alewife-style
  per-hop charge on a 2-D mesh.
* **external** models route between *SSMP clusters*:
  :class:`FixedLatency` is the paper's section 4.2.2 model (a constant
  one-way delay, no contention — the default, and bit-for-bit identical
  to the original hard-coded path); :class:`SharedBus` serializes every
  message on one shared link; :class:`SwitchedFabric` gives each
  ordered cluster pair a dedicated FIFO link.

Contended models (``contended = True``) must be entered *at* the wire
entry time: the :class:`~repro.machine.Machine` schedules a simulator
event at the send time and calls :meth:`Interconnect.transit` inside
it, so link reservations happen in deterministic ``(time, seq)`` event
order — never in the order threads happened to call ``send`` with
thread-local future timestamps (the seed's LAN reservation bug).

:meth:`Interconnect.transit` returns the arrival cycle as a plain
``int``.  Cycles a message spends queued behind earlier traffic go to
the model's per-link :attr:`Interconnect.queue_cycles` counter instead;
the machine's ``MessageStats`` reads that same counter.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.params import MachineConfig, NetworkConfig

__all__ = [
    "Interconnect",
    "Wire",
    "Mesh2D",
    "FixedLatency",
    "SharedBus",
    "SwitchedFabric",
    "build_internal",
    "build_external",
]


class Interconnect:
    """Common interface of every topology model."""

    #: model name as it appears in ``NetworkConfig``/stats
    name: str = "interconnect"
    #: True when :meth:`transit` mutates link state and therefore must be
    #: called at the wire-entry time, in simulator event order.  An
    #: uncontended model must return ``now`` plus a delay that depends on
    #: the endpoints alone: ``Machine`` tabulates those delays once
    contended: bool = False

    def __init__(self) -> None:
        #: cycles messages spent queued behind earlier traffic, per link
        #: name (stays empty on uncontended models)
        self.queue_cycles: Counter = Counter()

    def transit(self, src: int, dst: int, size: int, now: int) -> int:
        """Route a ``size``-byte message entering the network at ``now``
        and return its absolute arrival time.

        ``src``/``dst`` are processor ids for internal models and
        cluster ids for external models.
        """
        raise NotImplementedError

    def link_name(self, src: int, dst: int) -> str:
        """Stable stats key of the link a ``src``→``dst`` message uses."""
        return self.name

    def state(self, base: int):
        """Link reservations relative to ``base``, clamped at zero;
        ``None`` for stateless models."""
        return None

    def set_state(self, base: int, state) -> None:
        """Inverse of :meth:`state`: re-anchor reservations at ``base``."""


# ----------------------------------------------------------------------
# internal (intra-SSMP) models
# ----------------------------------------------------------------------


class Wire(Interconnect):
    """Fixed wire latency between any two processors of an SSMP."""

    name = "wire"

    def __init__(self, wire_latency: int) -> None:
        super().__init__()
        self.wire_latency = wire_latency

    def transit(self, src: int, dst: int, size: int, now: int) -> int:
        return now + self.wire_latency


class Mesh2D(Interconnect):
    """Alewife-style 2-D mesh inside an SSMP: hop-count latency.

    Processors of a cluster are laid out row-major on the smallest
    square that holds ``cluster_size`` of them; a message pays the base
    wire latency plus ``hop_latency`` per Manhattan hop.
    """

    name = "mesh"

    def __init__(self, cluster_size: int, wire_latency: int, hop_latency: int) -> None:
        super().__init__()
        self.cluster_size = cluster_size
        self.wire_latency = wire_latency
        self.hop_latency = hop_latency
        self.side = max(1, math.isqrt(max(0, cluster_size - 1)) + 1)

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two processors' mesh positions."""
        a, b = src % self.cluster_size, dst % self.cluster_size
        ax, ay = a % self.side, a // self.side
        bx, by = b % self.side, b // self.side
        return abs(ax - bx) + abs(ay - by)

    def transit(self, src: int, dst: int, size: int, now: int) -> int:
        return now + self.wire_latency + self.hops(src, dst) * self.hop_latency


# ----------------------------------------------------------------------
# external (inter-SSMP) models
# ----------------------------------------------------------------------


class FixedLatency(Interconnect):
    """The paper's model: every message pays one fixed latency."""

    name = "fixed"

    def __init__(self, delay: int) -> None:
        super().__init__()
        self.delay = delay

    def transit(self, src: int, dst: int, size: int, now: int) -> int:
        return now + self.delay

    def link_name(self, src: int, dst: int) -> str:
        return "lan"


class SharedBus(Interconnect):
    """One shared link: messages serialize at ``bandwidth`` bytes/cycle.

    The LAN contention model (``NetworkConfig(external="bus",
    bus_bandwidth=...)``); ``contended`` two-stage scheduling makes its
    link reservations in deterministic event order.
    """

    name = "bus"
    contended = True

    def __init__(self, delay: int, bandwidth: float) -> None:
        super().__init__()
        self.delay = delay
        self.bandwidth = bandwidth
        self._free_at = 0

    def transit(self, src: int, dst: int, size: int, now: int) -> int:
        start = max(now, self._free_at)
        transfer = max(1, round(size / self.bandwidth))
        self._free_at = start + transfer
        self.queue_cycles["bus"] += start - now
        return start + transfer + self.delay

    def state(self, base: int) -> int:
        return max(0, self._free_at - base)

    def set_state(self, base: int, state: int) -> None:
        self._free_at = base + state


class SwitchedFabric(Interconnect):
    """A dedicated FIFO link per ordered cluster pair.

    Each link serializes its own traffic at ``bandwidth`` bytes/cycle;
    disjoint pairs never contend (the crossbar ideal).
    """

    name = "fabric"
    contended = True

    def __init__(self, delay: int, bandwidth: float) -> None:
        super().__init__()
        self.delay = delay
        self.bandwidth = bandwidth
        self._free_at: dict[tuple[int, int], int] = {}

    def transit(self, src: int, dst: int, size: int, now: int) -> int:
        key = (src, dst)
        start = max(now, self._free_at.get(key, 0))
        transfer = max(1, round(size / self.bandwidth))
        self._free_at[key] = start + transfer
        self.queue_cycles[f"{src}->{dst}"] += start - now
        return start + transfer + self.delay

    def link_name(self, src: int, dst: int) -> str:
        return f"{src}->{dst}"

    def state(self, base: int) -> tuple:
        """Sorted ``(link, offset)`` pairs of the links busy after ``base``."""
        return tuple(
            sorted((k, v - base) for k, v in self._free_at.items() if v > base)
        )

    def set_state(self, base: int, state) -> None:
        for key, off in state:  # keys arrive as lists from JSON
            self._free_at[tuple(key)] = base + off


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------


def build_internal(net: NetworkConfig, config: MachineConfig) -> Interconnect:
    """The intra-SSMP network named by ``net.internal``."""
    if net.internal == "mesh":
        return Mesh2D(
            config.cluster_size, config.intra_wire_latency, net.mesh_hop_latency
        )
    return Wire(config.intra_wire_latency)


def build_external(net: NetworkConfig, config: MachineConfig) -> Interconnect:
    """The inter-SSMP network named by ``net.external``."""
    if net.external == "bus":
        return SharedBus(config.inter_ssmp_delay, net.bus_bandwidth)
    if net.external == "fabric":
        return SwitchedFabric(config.inter_ssmp_delay, net.link_bandwidth)
    return FixedLatency(config.inter_ssmp_delay)
