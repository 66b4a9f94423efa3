"""Functional model of Alewife's hardware cache coherence within an SSMP.

The paper treats intra-SSMP hardware shared memory as a fast black box
with the measured miss penalties of Table 3 (local 11, remote 38, 2-party
42, 3-party 63 cycles, and 425 cycles once the software-extended LimitLESS
directory takes over).  We reproduce exactly that: a per-cluster, per-line
directory tracks which processors cache each line and in what state, and
every access is classified into one of the cost classes.  Directory state
changes take effect immediately (functional simulation); the access's
latency class is charged to the issuing processor by the runtime.

Classification rules:

* **hit** — the line is already cached with sufficient privilege.
* **local / remote miss** — the line is clean; cost depends on whether the
  line's home memory (the node hosting the page frame) is the issuing
  processor's own memory.
* **2-party / 3-party miss** — the line is dirty in another processor's
  cache (or, for writes, shared copies must be invalidated); the cost
  depends on how many distinct nodes take part in the transaction.
* **software directory** — the sharer set outgrew the hardware directory
  pointers, so a software handler services the miss (Table 3's "Remote
  Software", 425 cycles).

Each directory entry is ``[owner, sharer_mask]``: ``owner`` is the pid
holding the line dirty (``-1`` when clean), and bit ``p`` of the integer
``sharer_mask`` is set while processor ``p`` holds a shared copy (a
dirty line has mask 0).  The mask stands in for Alewife's hardware
sharer pointers: the LimitLESS overflow test is its ``bit_count()``
against ``MachineConfig.hw_dir_pointers``.  A small int costs 28 bytes
and even a one-element ``set`` 216, which matters because the line
directories are the largest piece of a simulation's memory.

Page cleaning (section 4.2.4) drops every cached line of a page, and it
runs on every release round and every outbound page grant, while a page
usually has only a line or two cached.  So each cluster also keeps a
page index, ``page -> [line, ...]`` of the page's lines that have a
directory entry: a line is appended where its entry is created (the only
place one is), and :meth:`CacheSystem.flush_page` pops the page's list
and then just those lines.  The index is derived from the directory,
which is all that :meth:`CacheSystem.state` digests.

Capacity and conflict misses are not modeled (the directory acts as if
caches were infinite); the paper's working sets at our scaled problem
sizes fit comfortably in Alewife's 64 KB SRAM, and the effects the paper
studies — false sharing and multigrain locality — come from coherence
misses, which are modeled.

Hot-path note: the runtime's ``Env`` (``repro.runtime.env``) probes the
cluster's line dict itself, takes hits there (adding them straight to
the hit slot) and calls :meth:`CacheSystem.access` only on a miss,
passing the entry it probed.  ``access`` then skips its own probe, and
an absent line's entry is created directly in its final state, so a
hardware miss costs one call and one dict probe.  Statistics live in a
fixed-slot integer list indexed by ``AccessClass`` position (no
``Counter``/enum hashing per access); the ``stats`` property rebuilds
the Counter view for reporting.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict

import numpy as np

from repro.params import CostModel, MachineConfig
from repro.sim.snapshot import array_digest

__all__ = ["AccessClass", "CacheSystem"]


class AccessClass(enum.Enum):
    """Latency class of a hardware shared-memory access."""

    HIT = "hit"
    LOCAL = "local"
    REMOTE = "remote"
    TWO_PARTY = "2party"
    THREE_PARTY = "3party"
    SOFTWARE = "software"


#: definition-order view of the classes; slot ``i`` of the fixed counters
#: counts ``_CLASSES[i]`` accesses.  The classifier works in these int
#: indices throughout — no enum hashing on the per-access hot path.
_CLASSES = tuple(AccessClass)
_IDX = {klass: i for i, klass in enumerate(_CLASSES)}
_HIT = _IDX[AccessClass.HIT]
_LOCAL = _IDX[AccessClass.LOCAL]
_REMOTE = _IDX[AccessClass.REMOTE]
_TWO_PARTY = _IDX[AccessClass.TWO_PARTY]
_THREE_PARTY = _IDX[AccessClass.THREE_PARTY]
_SOFTWARE = _IDX[AccessClass.SOFTWARE]

#: ``access``'s default ``state``: the caller did not probe the line
_UNPROBED = object()


class CacheSystem:
    """Per-cluster line directories with Table 3 cost classification."""

    __slots__ = (
        "config",
        "costs",
        "_lines",
        "_pages",
        "_lines_per_page",
        "_counts",
        "_cost_of",
        "_hw_ptrs",
        "hit_cost",
    )

    def __init__(self, config: MachineConfig, costs: CostModel) -> None:
        self.config = config
        self.costs = costs
        self._hw_ptrs = config.hw_dir_pointers
        # One directory per cluster: line id -> [owner_pid or -1, sharer mask]
        self._lines: list[dict[int, list]] = [
            {} for _ in range(config.num_clusters)
        ]
        #: per cluster, page -> the page's lines that have an entry in
        #: ``_lines``, in creation order: the index page cleaning walks
        #: instead of every line of the page
        self._pages: list[defaultdict[int, list[int]]] = [
            defaultdict(list) for _ in range(config.num_clusters)
        ]
        self._lines_per_page = config.lines_per_page
        self._counts: list[int] = [0] * len(_CLASSES)
        self._cost_of: list[int] = [
            costs.cache_hit,
            costs.miss_local,
            costs.miss_remote,
            costs.miss_2party,
            costs.miss_3party,
            costs.miss_software_dir,
        ]
        #: cost of a hit, exposed so the runtime's Env can charge it
        #: without a method call
        self.hit_cost = costs.cache_hit

    def close(self) -> None:
        """Drop the line directories of a finished run; the access-class
        counts stay."""
        for directory in self._lines:
            directory.clear()
        for pages in self._pages:
            pages.clear()

    @property
    def stats(self) -> Counter:
        """Access counts by :class:`AccessClass` (Counter view).

        Only classes that occurred appear as keys, matching the behavior
        of the per-access ``Counter`` this property replaced.
        """
        return Counter(
            {klass: n for klass, n in zip(_CLASSES, self._counts) if n}
        )

    def access(
        self,
        cluster: int,
        pid: int,
        line: int,
        is_write: bool,
        home_pid: int,
        state=_UNPROBED,
    ) -> int:
        """Perform one access and return its cycle cost.

        Args:
            cluster: SSMP in which the access occurs (each SSMP has its
                own copy of the page and hence its own line states).
            pid: issuing processor.
            line: global line index (address // line_size).
            is_write: store vs load.
            home_pid: processor whose memory hosts this cluster's frame.
            state: the line's directory entry as the caller already
                probed it (None when absent); omitted, it is probed here.
        """
        if state is _UNPROBED:
            state = self._lines[cluster].get(line)
        if state is None:
            # An absent line is clean and unshared, so the access is a
            # local or remote miss (``hw_dir_pointers >= 0``), and its
            # entry is created in its final state and indexed under its
            # page for page cleaning.
            self._lines[cluster][line] = [pid, 0] if is_write else [-1, 1 << pid]
            self._pages[cluster][line // self._lines_per_page].append(line)
            i = _LOCAL if home_pid == pid else _REMOTE
        elif is_write:
            owner, mask = state
            if owner == pid:
                i = _HIT
            elif owner != -1:
                # Dirty in another cache: fetch-exclusive, owner writes
                # back.  Issuer and owner differ, so the transaction
                # stays 2-party exactly when the home node is one of
                # them.
                i = (
                    _TWO_PARTY
                    if home_pid == pid or home_pid == owner
                    else _THREE_PARTY
                )
            elif mask.bit_count() > self._hw_ptrs:
                i = _SOFTWARE
            # Otherwise invalidate the shared copies; the cost scales
            # with the parties involved.  ``others`` holds the sharers
            # but the issuer.
            elif not (others := mask & ~(1 << pid)):
                i = _LOCAL if home_pid == pid else _REMOTE
            elif others & (others - 1):
                # more than one invalidation target
                i = _THREE_PARTY
            else:
                # One target: 2-party when the issuer or the target is
                # the home node.
                i = (
                    _TWO_PARTY
                    if home_pid == pid or others == 1 << home_pid
                    else _THREE_PARTY
                )
            # A hit leaves the entry as it was: owned, with no sharers.
            state[0] = pid
            state[1] = 0
        else:
            owner, mask = state
            if owner == pid or (owner == -1 and mask >> pid & 1):
                i = _HIT
            elif owner != -1:
                # Issuer and owner differ (same-owner loads are hits),
                # so 2-party exactly when the home node is one of them.
                i = (
                    _TWO_PARTY
                    if home_pid == pid or home_pid == owner
                    else _THREE_PARTY
                )
                state[0] = -1
                state[1] = 1 << pid | 1 << owner
            else:
                state[1] = mask | 1 << pid
                if mask.bit_count() > self._hw_ptrs:
                    i = _SOFTWARE
                else:
                    i = _LOCAL if home_pid == pid else _REMOTE
        self._counts[i] += 1
        return self._cost_of[i]

    def flush_page(self, cluster: int, vpn: int) -> None:
        """Drop all line state of page ``vpn`` in ``cluster`` (page
        cleaning), visiting only the lines the page index lists."""
        pop = self._lines[cluster].pop
        for line in self._pages[cluster].pop(vpn, ()):
            pop(line)

    def state(self) -> tuple:
        """Per cluster, the ``(line, owner, sharer-mask)`` stream sorted
        by line: the largest piece of machine state, so hashed through
        numpy when the masks fit int64 (always, at the paper's sizes)."""
        numeric = self.config.total_processors <= 60
        out = []
        for directory in self._lines:
            rows = [(line, owner, mask) for line, (owner, mask) in directory.items()]
            if numeric:
                arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
                out.append(array_digest(arr[arr[:, 0].argsort()]))
            else:
                out.append(tuple(sorted(rows)))
        return tuple(out)

    def lines_cached(self, cluster: int) -> int:
        """Number of lines with directory state in ``cluster``."""
        return len(self._lines[cluster])
