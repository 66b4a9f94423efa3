"""The Delayed Update Queue (DUQ).

MGS borrows the DUQ from Munin (section 3.1.1): every page a processor
writes is queued, and at a release point the queue is drained — a ``REL``
message goes to each page's home, serially, and the release completes
when every ``RACK`` has returned (Table 1, arcs 8-10).

A page is removed early if its mapping is invalidated before the release
(Table 1, arc 12): the diff was already collected by the invalidation
round, so releasing it again would be redundant.
"""

from __future__ import annotations

__all__ = ["DUQ"]


class DUQ:
    """Ordered set of dirty pages awaiting release, one per processor."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._pages: dict[int, None] = {}  # insertion-ordered set of vpns
        self.enqueues = 0
        self.early_removals = 0

    def close(self) -> None:
        """Drop the queued pages; the counts stay."""
        self._pages.clear()

    def add(self, vpn: int) -> None:
        """Queue a page (idempotent)."""
        if vpn not in self._pages:
            self._pages[vpn] = None
            self.enqueues += 1

    def remove_if_present(self, vpn: int) -> bool:
        """Remove ``vpn``; True if it was queued."""
        if vpn in self._pages:
            del self._pages[vpn]
            self.early_removals += 1
            return True
        return False

    def vpns(self) -> list[int]:
        """The queued pages, oldest first (for inspection/analysis)."""
        return list(self._pages)

    def pop_head(self) -> int:
        """Dequeue the oldest dirty page."""
        vpn = next(iter(self._pages))
        del self._pages[vpn]
        return vpn

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._pages

    def __bool__(self) -> bool:
        return bool(self._pages)
