"""Typed protocol messages (Table 2 of the paper).

Every arc of the MGS protocol travels as a slotted dataclass from this
module: one class per Table 2 message type, each carrying the page it
concerns (``vpn``), its endpoints (source/destination cluster and
processor), and the **transaction id** (``txn``) of the fault or release
operation it belongs to, assigned by the
:class:`~repro.core.bus.MessageBus` when the operation enters the
protocol and threaded through every message until the operation
completes.  Wire sizes are derived from the message type itself
(:meth:`ProtocolMessage.wire_bytes`), so call sites never hand-compute
payload bytes.  Messages are not frozen (a frozen ``__init__`` costs a
``object.__setattr__`` per field on every send), but no code rebinds a
field once a message is built: ``tests/test_messages.py`` pins that for
every message a mixed workload delivers.  The full Table 2 set:

=============  =====================================================
Local Client -> Remote Client
  UPGRADE      upgrade local page from read to write privilege
  PINV_ACK     acknowledge TLB invalidation
Remote Client -> Local Client
  PINV         invalidate TLB entry
  UP_ACK       acknowledge upgrade
Local Client -> Server
  RREQ         read data request
  WREQ         write data request
  REL          release request
Server -> Local Client
  RDAT         read data
  WDAT         write data
  RACK         acknowledge release
Remote Client -> Server
  ACK          acknowledge read invalidate
  DIFF         acknowledge write invalidate and return diff
  ONE_WDATA    acknowledge single-writer invalidate and return data
  WNOTIFY      notify upgrade from read to write privilege
Server -> Remote Client
  INV          invalidate page
  ONE_WINV     invalidate single-writer page
=============  =====================================================

One implementation-internal message exists beyond Table 2:
:class:`RetainedUnlock` (label ``1W_UNLOCK``), the Server's completion
signal releasing the mapping lock of a copy retained under the
single-writer optimization (see ``docs/PROTOCOL.md``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.params import MachineConfig

__all__ = [
    "MsgType",
    "ProtocolMessage",
    "Upgrade",
    "PinvAck",
    "Pinv",
    "UpAck",
    "Rreq",
    "Wreq",
    "Rel",
    "Rdat",
    "Wdat",
    "Rack",
    "Ack",
    "Diff",
    "OneWdata",
    "Wnotify",
    "Inv",
    "OneWinv",
    "RetainedUnlock",
    "TABLE2_CLASSES",
    "message_class",
]

#: bytes per (word index, word value) pair in a diff payload
DIFF_ENTRY_BYTES = 12


class MsgType(enum.Enum):
    """Every message type of the MGS protocol (Table 2)."""

    # Local Client -> Remote Client
    UPGRADE = "UPGRADE"
    PINV_ACK = "PINV_ACK"
    # Remote Client -> Local Client
    PINV = "PINV"
    UP_ACK = "UP_ACK"
    # Local Client -> Server
    RREQ = "RREQ"
    WREQ = "WREQ"
    REL = "REL"
    # Server -> Local Client
    RDAT = "RDAT"
    WDAT = "WDAT"
    RACK = "RACK"
    # Remote Client -> Server
    ACK = "ACK"
    DIFF = "DIFF"
    ONE_WDATA = "1WDATA"
    WNOTIFY = "WNOTIFY"
    # Server -> Remote Client
    INV = "INV"
    ONE_WINV = "1WINV"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(eq=False, slots=True)
class ProtocolMessage:
    """Base of every protocol message.

    ``txn`` is the transaction id of the fault or release operation this
    message serves; the bus records per-transaction latency under it.
    """

    #: the Table 2 type, or None for implementation-internal messages
    mtype: ClassVar[MsgType | None] = None
    #: wire label used for statistics and dispatch (``mtype.value`` for
    #: Table 2 messages)
    label: ClassVar[str] = "?"

    vpn: int
    src_pid: int
    src_cluster: int
    dst_pid: int
    dst_cluster: int
    txn: int

    def wire_bytes(self, config: "MachineConfig") -> int:
        """Bytes this message occupies on the wire (control header)."""
        return config.control_msg_bytes

    def describe(self) -> str:
        """Short human-readable rendering for traces."""
        return (
            f"{self.label} c{self.src_cluster}p{self.src_pid}"
            f"->c{self.dst_cluster}p{self.dst_pid}"
        )


# ----------------------------------------------------------------------
# Local Client -> Remote Client
# ----------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Upgrade(ProtocolMessage):
    """Request read->write privilege upgrade (arc 2)."""

    mtype: ClassVar[MsgType] = MsgType.UPGRADE
    label: ClassVar[str] = MsgType.UPGRADE.value

    on_done: Callable[[], None] = None  # type: ignore[assignment]


@dataclass(eq=False, slots=True)
class PinvAck(ProtocolMessage):
    """Acknowledge a TLB shootdown (arcs 15-16)."""

    mtype: ClassVar[MsgType] = MsgType.PINV_ACK
    label: ClassVar[str] = MsgType.PINV_ACK.value


# ----------------------------------------------------------------------
# Remote Client -> Local Client
# ----------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Pinv(ProtocolMessage):
    """Invalidate one processor's TLB entry (arcs 11-12)."""

    mtype: ClassVar[MsgType] = MsgType.PINV
    label: ClassVar[str] = MsgType.PINV.value


@dataclass(eq=False, slots=True)
class UpAck(ProtocolMessage):
    """Acknowledge an upgrade (arc 7)."""

    mtype: ClassVar[MsgType] = MsgType.UP_ACK
    label: ClassVar[str] = MsgType.UP_ACK.value

    on_done: Callable[[], None] = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Local Client -> Server
# ----------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Rreq(ProtocolMessage):
    """Read data request (arc 5)."""

    mtype: ClassVar[MsgType] = MsgType.RREQ
    label: ClassVar[str] = MsgType.RREQ.value

    @property
    def want_write(self) -> bool:
        return False


@dataclass(eq=False, slots=True)
class Wreq(ProtocolMessage):
    """Write data request (arc 5)."""

    mtype: ClassVar[MsgType] = MsgType.WREQ
    label: ClassVar[str] = MsgType.WREQ.value

    @property
    def want_write(self) -> bool:
        return True


@dataclass(eq=False, slots=True)
class Rel(ProtocolMessage):
    """Release one dirty page (arc 8)."""

    mtype: ClassVar[MsgType] = MsgType.REL
    label: ClassVar[str] = MsgType.REL.value

    on_done: Callable[[], None] = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Server -> Local Client
# ----------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Rdat(ProtocolMessage):
    """Read data grant (arc 6): control header plus the page."""

    mtype: ClassVar[MsgType] = MsgType.RDAT
    label: ClassVar[str] = MsgType.RDAT.value

    data: np.ndarray = None  # type: ignore[assignment]

    @property
    def write_grant(self) -> bool:
        return False

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class Wdat(ProtocolMessage):
    """Write data grant (arc 6): control header plus the page."""

    mtype: ClassVar[MsgType] = MsgType.WDAT
    label: ClassVar[str] = MsgType.WDAT.value

    data: np.ndarray = None  # type: ignore[assignment]

    @property
    def write_grant(self) -> bool:
        return True

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class Rack(ProtocolMessage):
    """Acknowledge a release (arcs 9-10)."""

    mtype: ClassVar[MsgType] = MsgType.RACK
    label: ClassVar[str] = MsgType.RACK.value

    on_done: Callable[[], None] = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Remote Client -> Server
# ----------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Ack(ProtocolMessage):
    """Acknowledge a read-copy invalidation (arc 15).

    ``dirty`` marks the home cluster's aliased write copy: its changes
    are already merged, but the Server must learn a foreign writer
    contributed so a single-writer retention in the round is recalled.
    """

    mtype: ClassVar[MsgType] = MsgType.ACK
    label: ClassVar[str] = MsgType.ACK.value

    dirty: bool = False


@dataclass(eq=False, slots=True)
class Diff(ProtocolMessage):
    """Acknowledge a write-copy invalidation with the Munin diff."""

    mtype: ClassVar[MsgType] = MsgType.DIFF
    label: ClassVar[str] = MsgType.DIFF.value

    indices: np.ndarray = None  # type: ignore[assignment]
    values: np.ndarray = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + DIFF_ENTRY_BYTES * len(self.indices)


@dataclass(eq=False, slots=True)
class OneWdata(ProtocolMessage):
    """Single-writer invalidation response: the whole page travels home,
    applied as a diff against the twin (see ``docs/PROTOCOL.md``)."""

    mtype: ClassVar[MsgType] = MsgType.ONE_WDATA
    label: ClassVar[str] = MsgType.ONE_WDATA.value

    indices: np.ndarray = None  # type: ignore[assignment]
    values: np.ndarray = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class Wnotify(ProtocolMessage):
    """Notify the home of a read->write upgrade (arc 18)."""

    mtype: ClassVar[MsgType] = MsgType.WNOTIFY
    label: ClassVar[str] = MsgType.WNOTIFY.value


# ----------------------------------------------------------------------
# Server -> Remote Client
# ----------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Inv(ProtocolMessage):
    """Invalidate an SSMP's page copy (arc 14).

    ``recall`` marks the follow-up invalidation of a retained
    single-writer copy whose round saw foreign writes; it takes over the
    mapping lock the finished single-writer invalidation still holds.
    """

    mtype: ClassVar[MsgType] = MsgType.INV
    label: ClassVar[str] = MsgType.INV.value

    recall: bool = False

    @property
    def kind(self) -> str:
        return "inv"


@dataclass(eq=False, slots=True)
class OneWinv(ProtocolMessage):
    """Invalidate the single writer's copy, which it keeps (arc 14)."""

    mtype: ClassVar[MsgType] = MsgType.ONE_WINV
    label: ClassVar[str] = MsgType.ONE_WINV.value

    @property
    def kind(self) -> str:
        return "1w"


# ----------------------------------------------------------------------
# implementation-internal (not part of Table 2)
# ----------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class RetainedUnlock(ProtocolMessage):
    """Release-round completion signal for a retained single-writer copy:
    the copy is consistent with home again and may serve mappings."""

    mtype: ClassVar[None] = None
    label: ClassVar[str] = "1W_UNLOCK"


#: Table 2 message classes, keyed by type — the completeness checks and
#: the protocol documentation are generated from this registry.
TABLE2_CLASSES: dict[MsgType, type[ProtocolMessage]] = {
    cls.mtype: cls
    for cls in (
        Upgrade, PinvAck, Pinv, UpAck, Rreq, Wreq, Rel, Rdat, Wdat, Rack,
        Ack, Diff, OneWdata, Wnotify, Inv, OneWinv,
    )
}


def message_class(mtype: MsgType) -> type[ProtocolMessage]:
    """The message class implementing a Table 2 type."""
    return TABLE2_CLASSES[mtype]
