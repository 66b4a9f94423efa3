"""Per-processor software TLB.

The three mapping states match the Local Client states of Figure 4:
``TLB_INV`` (no entry), ``TLB_READ``, and ``TLB_WRITE``.  The TLB is a
map, not a fixed-size structure: Alewife's software translation consults a
page table on every access, so capacity effects do not apply — what
matters is whether a mapping with sufficient privilege exists.
"""

from __future__ import annotations

import enum

__all__ = ["MapMode", "TLB"]


class MapMode(enum.IntEnum):
    """Privilege of a TLB mapping."""

    READ = 1
    WRITE = 2


class TLB:
    """Mapping state for one processor."""

    __slots__ = ("pid", "_entries", "fills", "invalidations")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._entries: dict[int, MapMode] = {}
        self.fills = 0
        self.invalidations = 0

    def lookup(self, vpn: int) -> MapMode | None:
        """Mapping mode for ``vpn``, or None (TLB_INV)."""
        return self._entries.get(vpn)

    def fill(self, vpn: int, mode: MapMode) -> None:
        """Install or upgrade a mapping."""
        current = self._entries.get(vpn)
        if current is None or mode > current:
            self._entries[vpn] = mode
        self.fills += 1

    def invalidate(self, vpn: int) -> bool:
        """Drop the mapping for ``vpn``.  Returns True if one existed."""
        existed = self._entries.pop(vpn, None) is not None
        if existed:
            self.invalidations += 1
        return existed

    def close(self) -> None:
        """Drop every mapping; the fill and invalidation counts stay."""
        self._entries.clear()

    def has_write(self, vpn: int) -> bool:
        return self._entries.get(vpn) == MapMode.WRITE

    def state(self) -> tuple:
        """Mappings as sorted ``(vpn, mode)`` pairs."""
        return tuple(sorted((vpn, int(mode)) for vpn, mode in self._entries.items()))

    def mapped_vpns(self) -> tuple[int, ...]:
        """Snapshot of the currently mapped page numbers.

        A tuple, so callers can invalidate while iterating.
        """
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
