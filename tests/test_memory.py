"""Memory footprint of the simulator's two largest containers.

Locks and line-directory entries dominate a simulation's own memory:
Barnes-Hut creates one lock per tree node, and every cached line keeps a
directory entry per cluster.  These bounds sit between the slotted,
list-queued locks and sharer-bitmask lines (about 4.2 MB and 2.7 MB) and
the ``deque``-per-SSMP locks and sharer sets they replaced (40.0 MB and
7.0 MB), so a regression to either older layout fails.
"""

from __future__ import annotations

import tracemalloc

from repro.hw import CacheSystem
from repro.params import CostModel, MachineConfig
from repro.runtime import Runtime


def _allocated_mb(build) -> float:
    """Megabytes (10**6 bytes) still allocated after ``build()`` returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept is not None
    return (after - before) / 1e6


def test_barnes_hut_sized_lock_pool_stays_small():
    rt = Runtime(MachineConfig(total_processors=32, cluster_size=1))
    mb = _allocated_mb(lambda: [rt.create_lock() for _ in range(1536)])
    assert mb < 10.0, f"1536 locks at P=32, C=1 took {mb:.1f} MB"


def test_two_sharer_directory_lines_stay_small():
    cache = CacheSystem(MachineConfig(total_processors=8, cluster_size=8), CostModel())

    def fill():
        for line in range(20_000):
            cache.access(0, 1, line, False, 0)
            cache.access(0, 2, line, False, 0)
        return cache

    mb = _allocated_mb(fill)
    assert cache.lines_cached(0) == 20_000
    assert mb < 5.0, f"20,000 two-sharer lines took {mb:.1f} MB"
