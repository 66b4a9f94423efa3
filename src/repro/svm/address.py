"""Virtual address space layout for the MGS reproduction.

MGS performs address translation in software: the compiler emits in-line
translation code before every access to a mapped object (section 4.2.1).
Two kinds of mapped accesses exist — distributed-array accesses (18
cycles) and pointer dereferences (24 cycles, the extra cost paying for the
virtual-vs-physical address check).  We reproduce that split with
:class:`AccessKind` recorded per segment.

Every virtual page has a fixed *home* processor whose memory holds the
physical home copy; the home "is based on the virtual address and remains
fixed for all time" (section 3.1).  Applications may control data
distribution at allocation time (the paper's apps distribute their main
arrays across processors), so :meth:`AddressSpace.alloc` accepts an
explicit home map; the default interleaves pages round-robin across all
processors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.params import WORD_BYTES, MachineConfig

__all__ = ["AccessKind", "AddressSpace", "Segment"]


class AccessKind(enum.Enum):
    """How an access to a segment is translated (Table 3, middle group)."""

    ARRAY = "array"  # distributed-array access: always mapped
    POINTER = "pointer"  # pointer dereference: extra virtual/physical check


@dataclass(frozen=True)
class Segment:
    """A contiguous allocation in the shared virtual address space."""

    name: str
    base: int  # byte address, page aligned
    size: int  # bytes
    kind: AccessKind

    @property
    def end(self) -> int:
        return self.base + self.size

    def address_of_word(self, index: int) -> int:
        """Byte address of the ``index``-th 8-byte word in the segment."""
        addr = self.base + index * WORD_BYTES
        if addr + WORD_BYTES > self.end:
            raise IndexError(f"word {index} out of bounds for segment {self.name!r}")
        return addr


class AddressSpace:
    """Shared virtual address space with per-page home assignment.

    The virtual space starts at a non-zero base so that address 0 is never
    a valid shared address (mirroring the disjoint virtual/physical
    assignment the paper uses to distinguish pointer targets).
    """

    BASE = 0x1000_0000

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._next = self.BASE
        self._segments: list[Segment] = []
        #: vpn -> home processor; the protocol engines index it directly
        #: on their message paths (``home_proc`` is the checked lookup)
        self.home_pids: dict[int, int] = {}

    @property
    def segments(self) -> Sequence[Segment]:
        return tuple(self._segments)

    def alloc(
        self,
        name: str,
        nbytes: int,
        kind: AccessKind = AccessKind.ARRAY,
        home: int | Callable[[int], int] | None = None,
    ) -> Segment:
        """Allocate ``nbytes`` of page-aligned shared memory.

        Args:
            home: home *processor* for the segment's pages.  ``None``
                interleaves pages round-robin across all processors; an
                int pins every page; a callable maps the page ordinal
                within the segment to a processor id.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        page = self.config.page_size
        size = (nbytes + page - 1) // page * page
        seg = Segment(name=name, base=self._next, size=size, kind=kind)
        self._next += size
        self._segments.append(seg)
        first_vpn = seg.base // page
        npages = size // page
        for i in range(npages):
            vpn = first_vpn + i
            if home is None:
                owner = vpn % self.config.total_processors
            elif callable(home):
                owner = home(i)
            else:
                owner = home
            if not 0 <= owner < self.config.total_processors:
                raise ValueError(f"home processor {owner} out of range")
            self.home_pids[vpn] = owner
        return seg

    def vpn_of(self, addr: int) -> int:
        return addr // self.config.page_size

    def word_of(self, addr: int) -> int:
        """Word offset within the page of ``addr``."""
        return (addr % self.config.page_size) // WORD_BYTES

    def home_proc(self, vpn: int) -> int:
        """Home processor of a virtual page."""
        try:
            return self.home_pids[vpn]
        except KeyError:
            raise KeyError(f"vpn {vpn:#x} is not an allocated shared page") from None

    def home_cluster(self, vpn: int) -> int:
        return self.config.cluster_of(self.home_proc(vpn))

    def is_shared(self, addr: int) -> bool:
        """True if ``addr`` falls inside an allocated shared segment."""
        vpn = addr // self.config.page_size
        return vpn in self.home_pids
