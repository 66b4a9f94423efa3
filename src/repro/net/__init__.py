"""repro.net — the pluggable interconnect subsystem.

Three layers between :class:`~repro.machine.Machine` and the wire:

1. **Topology/contention** (:mod:`repro.net.interconnect`) — internal
   and external network models behind one :class:`Interconnect`
   interface; the default pair (``wire`` + ``fixed``) is bit-for-bit
   the paper's section 4.2.2 model.
2. **Fault injection** (:mod:`repro.net.faults`) — deterministic,
   counter-seeded drop/duplicate/delay per external link.
3. **Reliable transport** (:mod:`repro.net.transport`) — sequence
   numbers, acks, exponential-backoff retransmission, and in-order
   exactly-once delivery, so the MGS protocol engines run unmodified
   over a lossy fabric.

Configured by :class:`repro.params.NetworkConfig`.
"""

from repro.net.faults import FaultDecision, FaultInjector, splitmix64
from repro.net.interconnect import (
    FixedLatency,
    Interconnect,
    Mesh2D,
    SharedBus,
    SwitchedFabric,
    Wire,
    build_external,
    build_internal,
)
from repro.net.transport import ReliableTransport

__all__ = [
    "Interconnect",
    "Wire",
    "Mesh2D",
    "FixedLatency",
    "SharedBus",
    "SwitchedFabric",
    "build_internal",
    "build_external",
    "FaultDecision",
    "FaultInjector",
    "splitmix64",
    "ReliableTransport",
]
