"""Typed messages of the single-grain software DSM engine.

The vocabulary is deliberately small — a fetch pair, an eager
release-round triple, and the acknowledgements — and every label is
prefixed ``S_`` so bus flow summaries never collide with Table 2 names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro.core.messages import DIFF_ENTRY_BYTES, ProtocolMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.params import MachineConfig

__all__ = ["SRreq", "SWreq", "SData", "SDiff", "SInv", "SIack", "SRack"]


@dataclass(eq=False, slots=True)
class SRreq(ProtocolMessage):
    """Node -> home: fetch a read copy."""

    label: ClassVar[str] = "S_RREQ"

    @property
    def want_write(self) -> bool:
        return False


@dataclass(eq=False, slots=True)
class SWreq(ProtocolMessage):
    """Node -> home: fetch a write copy."""

    label: ClassVar[str] = "S_WREQ"

    @property
    def want_write(self) -> bool:
        return True


@dataclass(eq=False, slots=True)
class SData(ProtocolMessage):
    """Home -> node: page data grant (read or write)."""

    label: ClassVar[str] = "S_DATA"

    write: bool = False
    data: np.ndarray = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        return config.control_msg_bytes + config.page_size


@dataclass(eq=False, slots=True)
class SDiff(ProtocolMessage):
    """Releaser -> home: one dirty page's diff (eager release).

    ``join`` marks a data-less release of a page whose writes already
    travelled home with an invalidation round that stole them; the home
    acknowledges once that round (or the current one) has completed.
    """

    label: ClassVar[str] = "S_DIFF"

    indices: np.ndarray = None  # type: ignore[assignment]
    values: np.ndarray = None  # type: ignore[assignment]
    join: bool = False
    on_done: Callable[[], None] = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        n = 0 if self.indices is None else len(self.indices)
        return config.control_msg_bytes + DIFF_ENTRY_BYTES * n


@dataclass(eq=False, slots=True)
class SInv(ProtocolMessage):
    """Home -> node: invalidate your copy (eager release round)."""

    label: ClassVar[str] = "S_INV"


@dataclass(eq=False, slots=True)
class SIack(ProtocolMessage):
    """Node -> home: invalidation done; carries a diff when the dropped
    copy was a write copy with uncommitted changes."""

    label: ClassVar[str] = "S_IACK"

    indices: np.ndarray = None  # type: ignore[assignment]
    values: np.ndarray = None  # type: ignore[assignment]

    def wire_bytes(self, config: "MachineConfig") -> int:
        n = 0 if self.indices is None else len(self.indices)
        return config.control_msg_bytes + DIFF_ENTRY_BYTES * n


@dataclass(eq=False, slots=True)
class SRack(ProtocolMessage):
    """Home -> releaser: release of one page acknowledged."""

    label: ClassVar[str] = "S_RACK"

    on_done: Callable[[], None] = None  # type: ignore[assignment]
