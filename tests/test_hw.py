"""Unit tests for the intra-SSMP hardware coherence model."""

import pytest

from repro.hw import AccessClass, CacheSystem
from repro.params import CostModel, MachineConfig


@pytest.fixture
def cache():
    config = MachineConfig(total_processors=8, cluster_size=4)
    return CacheSystem(config, CostModel())


COSTS = CostModel()


def test_cold_read_local_vs_remote(cache):
    # Line homed at proc 0's memory; proc 0 reads: local miss.
    assert cache.access(0, 0, 100, False, 0) == COSTS.miss_local
    # Proc 1 reads a different cold line homed at proc 0: remote miss.
    assert cache.access(0, 1, 101, False, 0) == COSTS.miss_remote


def test_read_hit_after_miss(cache):
    cache.access(0, 1, 100, False, 0)
    assert cache.access(0, 1, 100, False, 0) == COSTS.cache_hit


def test_write_hit_requires_ownership(cache):
    cache.access(0, 1, 100, False, 0)  # shared
    cost = cache.access(0, 1, 100, True, 0)  # upgrade
    assert cost > COSTS.cache_hit
    assert cache.access(0, 1, 100, True, 0) == COSTS.cache_hit


def test_dirty_read_two_party(cache):
    # Proc 0 (also home) writes; proc 0 vs requester 1: two parties.
    cache.access(0, 0, 100, True, 0)
    assert cache.access(0, 1, 100, False, 0) == COSTS.miss_2party


def test_dirty_read_three_party(cache):
    # Home is proc 2; proc 0 dirties; proc 1 reads: three parties.
    cache.access(0, 0, 100, True, 2)
    assert cache.access(0, 1, 100, False, 2) == COSTS.miss_3party


def test_write_invalidating_shared_copy(cache):
    cache.access(0, 1, 100, False, 0)  # proc 1 shares
    # Proc 0 (home) writes: invalidate proc 1 -> two parties.
    assert cache.access(0, 0, 100, True, 0) == COSTS.miss_2party


def test_write_invalidating_many_sharers_three_party(cache):
    cache.access(0, 1, 100, False, 0)
    cache.access(0, 2, 100, False, 0)
    assert cache.access(0, 3, 100, True, 0) == COSTS.miss_3party


def test_software_directory_beyond_pointer_limit(cache):
    config = MachineConfig(total_processors=32, cluster_size=8, hw_dir_pointers=5)
    cache = CacheSystem(config, COSTS)
    for pid in range(6):
        cache.access(0, pid, 100, False, 0)
    # Six sharers exceed the 5 hardware pointers: LimitLESS software path.
    assert cache.access(0, 6, 100, False, 0) == COSTS.miss_software_dir


def test_clusters_are_independent(cache):
    cache.access(0, 0, 100, True, 0)
    # Same line index in another cluster's replica: cold there.
    assert cache.access(1, 4, 100, False, 4) == COSTS.miss_local


def test_flush_page_drops_state(cache):
    for line in range(64, 72):
        cache.access(0, 1, line, False, 0)
    assert cache.lines_cached(0) == 8
    cache.flush_page(0, 1)  # lines 64-127: page 1
    assert cache.lines_cached(0) == 0
    # After a flush the next access misses again.
    assert cache.access(0, 1, 64, False, 0) == COSTS.miss_remote


def test_stats_accumulate(cache):
    cache.access(0, 0, 1, False, 0)
    cache.access(0, 0, 1, False, 0)
    assert cache.stats[AccessClass.LOCAL] == 1
    assert cache.stats[AccessClass.HIT] == 1


def test_dirty_write_by_other_processor(cache):
    cache.access(0, 0, 100, True, 0)  # proc 0 owns dirty
    cost = cache.access(0, 1, 100, True, 0)  # proc 1 steals ownership
    assert cost == COSTS.miss_2party
    # Proc 0 lost the line.
    assert cache.access(0, 0, 100, False, 0) == COSTS.miss_2party
