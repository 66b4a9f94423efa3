"""Typed messages of the synchronization-piggybacked lazy-RC engine.

Fetches (``G_RREQ``/``G_WREQ`` answered by versioned grants), the lazy
release-consistency diff pair (``G_DIFF``/``G_RACK``), and the
acquire-side refresh pair (``G_AREQ``/``G_ADATA``).  There are no
invalidation rounds: staleness is detected against page versions at
acquire points instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.messages import DIFF_ENTRY_BYTES, ProtocolMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.params import MachineConfig

__all__ = [
    "GRreq",
    "GWreq",
    "GData",
    "GWdata",
    "GDiff",
    "GRack",
    "GAreq",
    "GAdata",
]


@dataclass(eq=False, slots=True)
class GRreq(ProtocolMessage):
    """Cluster -> home: fetch a read copy."""

    label: ClassVar[str] = "G_RREQ"

    @property
    def want_write(self) -> bool:
        return False


@dataclass(eq=False, slots=True)
class GWreq(ProtocolMessage):
    """Cluster -> home: fetch a writable copy (no exclusivity implied)."""

    label: ClassVar[str] = "G_WREQ"

    @property
    def want_write(self) -> bool:
        return True


@dataclass(eq=False, slots=True)
class GData(ProtocolMessage):
    """Home -> cluster: read copy, stamped with the home's version."""

    label: ClassVar[str] = "G_DATA"

    version: int = 0
    data: np.ndarray = None  # type: ignore[assignment]

    @property
    def write_grant(self) -> bool:
        return False

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class GWdata(ProtocolMessage):
    """Home -> cluster: writable copy (the client twins it on arrival)."""

    label: ClassVar[str] = "G_WDATA"

    version: int = 0
    data: np.ndarray = None  # type: ignore[assignment]

    @property
    def write_grant(self) -> bool:
        return True

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class GDiff(ProtocolMessage):
    """Releaser -> home: one dirty page's diff; bumps the home version."""

    label: ClassVar[str] = "G_DIFF"

    indices: np.ndarray = None  # type: ignore[assignment]
    values: np.ndarray = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        n = 0 if self.indices is None else len(self.indices)
        return config.control_msg_bytes + DIFF_ENTRY_BYTES * n


@dataclass(eq=False, slots=True)
class GRack(ProtocolMessage):
    """Home -> releaser: diff applied; carries the new page version."""

    label: ClassVar[str] = "G_RACK"

    version: int = 0


@dataclass(eq=False, slots=True)
class GAreq(ProtocolMessage):
    """Acquirer -> home: refresh a written page found stale at acquire."""

    label: ClassVar[str] = "G_AREQ"


@dataclass(eq=False, slots=True)
class GAdata(ProtocolMessage):
    """Home -> acquirer: fresh base for an acquire-time refresh."""

    label: ClassVar[str] = "G_ADATA"

    version: int = 0
    data: np.ndarray = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size
