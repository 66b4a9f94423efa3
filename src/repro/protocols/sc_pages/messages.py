"""Typed messages of the sequentially-consistent single-writer engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.messages import ProtocolMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.params import MachineConfig

__all__ = [
    "ScRreq",
    "ScWreq",
    "ScData",
    "ScWgrant",
    "ScDown",
    "ScWb",
    "ScInv",
    "ScIack",
]


@dataclass(eq=False, slots=True)
class ScRreq(ProtocolMessage):
    """Cluster -> home: fetch a shared (read) copy."""

    label: ClassVar[str] = "SC_RREQ"

    @property
    def want_write(self) -> bool:
        return False


@dataclass(eq=False, slots=True)
class ScWreq(ProtocolMessage):
    """Cluster -> home: request exclusive (write) ownership."""

    label: ClassVar[str] = "SC_WREQ"

    @property
    def want_write(self) -> bool:
        return True


@dataclass(eq=False, slots=True)
class ScData(ProtocolMessage):
    """Home -> cluster: shared read copy."""

    label: ClassVar[str] = "SC_DATA"

    data: np.ndarray = None  # type: ignore[assignment]

    @property
    def write_grant(self) -> bool:
        return False

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class ScWgrant(ProtocolMessage):
    """Home -> cluster: exclusive write copy (everyone else is gone)."""

    label: ClassVar[str] = "SC_WGRANT"

    data: np.ndarray = None  # type: ignore[assignment]

    @property
    def write_grant(self) -> bool:
        return True

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class ScDown(ProtocolMessage):
    """Home -> writer: write back; ``drop`` invalidates, else downgrade
    to a shared copy."""

    label: ClassVar[str] = "SC_DOWN"

    drop: bool = False


@dataclass(eq=False, slots=True)
class ScWb(ProtocolMessage):
    """Writer -> home: the authoritative page travels back; ``kept``
    reports whether a downgraded shared copy remains."""

    label: ClassVar[str] = "SC_WB"

    kept: bool = False
    data: np.ndarray = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class ScInv(ProtocolMessage):
    """Home -> reader: drop your shared copy."""

    label: ClassVar[str] = "SC_INV"


@dataclass(eq=False, slots=True)
class ScIack(ProtocolMessage):
    """Reader -> home: shared copy dropped."""

    label: ClassVar[str] = "SC_IACK"
