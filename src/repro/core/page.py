"""Per-SSMP page frames, home pages, and the twin/diff machinery.

Client side (one per SSMP that replicated a page): a :class:`PageFrame`
holds the physical local copy, its twin (for the Munin-style multiple
writer protocol), the set of processors with TLB mappings (``tlb_dir`` in
Table 1), and the transient state used while a fault, upgrade, or
invalidation is in progress.

Server side (one per virtual page, at its home): a :class:`HomePage`
holds the physical home copy, the directories of replicated read/write
copies (``read_dir`` / ``write_dir``), and the release-in-progress
bookkeeping (``count``, queued requesters ``rd``/``wr``, queued releasers
``rl``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "FrameState",
    "ServerState",
    "PageFrame",
    "HomePage",
    "Waiter",
    "make_diff",
    "apply_diff",
    "dirty_lines",
]


class FrameState(enum.Enum):
    """Client-side page state within one SSMP (Figure 4, Local Client)."""

    INVALID = "INV"
    BUSY = "BUSY"  # request outstanding to the home
    READ = "READ"
    WRITE = "WRITE"


class ServerState(enum.Enum):
    """Server-side page state at the home (Figure 4, Server)."""

    READ = "READ"
    WRITE = "WRITE"
    REL_IN_PROG = "REL_IN_PROG"


@dataclass(slots=True)
class Waiter:
    """A processor blocked on a mapping fault for a page."""

    pid: int
    want_write: bool
    on_done: Callable[[], None]
    #: transaction id of the fault this processor entered with
    txn: int = -1


@dataclass(slots=True)
class PageFrame:
    """One SSMP's replica of a virtual page."""

    vpn: int
    cluster: int
    owner_pid: int  # first-touch owner; the Remote Client runs here
    state: FrameState = FrameState.INVALID
    data: np.ndarray | None = None
    twin: np.ndarray | None = None
    #: processors of this SSMP holding a TLB mapping for the page
    tlb_dir: set[int] = field(default_factory=set)
    #: True while the per-mapping page-table lock is held (fault/upgrade)
    lock_held: bool = False
    #: faulting processors queued on the mapping lock
    waiters: list[Waiter] = field(default_factory=list)
    #: invalidations that arrived while the mapping lock was held,
    #: as ``(kind, txn)`` pairs
    queued_invals: list[Any] = field(default_factory=list)
    #: outstanding PINV acknowledgements during an invalidation
    pinv_count: int = 0
    #: kind of the invalidation in progress: "read", "write", or "1w"
    inval_kind: str | None = None
    #: transaction id of the release round driving the invalidation
    inval_txn: int = -1
    #: True while this frame aliases the home copy (home-cluster frame)
    aliases_home: bool = False
    #: a write mapping was handed out after the last invalidation
    #: snapshot pushed this frame's data home; a release for such writes
    #: cannot be coalesced into an in-flight release round
    post_snapshot_writes: bool = False

    @property
    def mapped(self) -> bool:
        return self.state in (FrameState.READ, FrameState.WRITE)


@dataclass(slots=True)
class HomePage:
    """Server-side state for one virtual page at its home."""

    vpn: int
    home_pid: int
    #: the home copy; always present — every creation site allocates it
    data: np.ndarray
    state: ServerState = ServerState.READ
    read_dir: set[int] = field(default_factory=set)  # clusters w/ read copy
    write_dir: set[int] = field(default_factory=set)  # clusters w/ write copy
    # --- REL_IN_PROG bookkeeping (Table 1, arcs 20-23) ---
    count: int = 0  # outstanding invalidation acknowledgements
    rl: list[Any] = field(default_factory=list)  # queued releasers (Rel msgs)
    rd: list[Any] = field(default_factory=list)  # queued read requests (Rreq)
    wr: list[Any] = field(default_factory=list)  # queued write requests (Wreq)
    #: transaction id of the release driving the in-flight round
    round_txn: int = -1
    pending_wnotify: list[int] = field(default_factory=list)
    #: releases that arrived mid-round but cover post-snapshot writes;
    #: each is re-played as a fresh round after the current one completes
    pending_rels: list[Any] = field(default_factory=list)
    #: cluster keeping its copy under the single-writer optimization
    single_writer: int | None = None
    #: a diff arrived from a cluster other than the single writer during
    #: the current release round (the retained copy must be recalled)
    round_foreign_diff: bool = False

    @property
    def copies(self) -> set[int]:
        """Clusters holding any replica."""
        return self.read_dir | self.write_dir


def make_diff(data: np.ndarray, twin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Word-wise diff of a dirty page against its twin.

    Returns ``(indices, values)``: the word offsets that changed and their
    new values.  This is the Munin-style diff the Remote Client computes
    at invalidation time (Table 1, arc 14, ``make diff``).
    """
    indices = (data != twin).nonzero()[0]
    return indices, data[indices]  # fancy indexing already copies


def apply_diff(home: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """Merge a diff into the home copy (Table 1, arc 23, ``merge diffs``)."""
    home[indices] = values


def dirty_lines(indices: np.ndarray, words_per_line: int) -> int:
    """Number of distinct cache lines touched by a diff (for DMA sizing).

    ``indices`` ascend (:func:`make_diff` takes them from
    ``nonzero``), so the count is one line plus one per boundary
    between neighbouring indices in different lines: no sort needed.
    """
    if len(indices) == 0:
        return 0
    lines = indices // words_per_line
    return 1 + int(np.count_nonzero(lines[1:] != lines[:-1]))
