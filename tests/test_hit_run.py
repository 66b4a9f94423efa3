"""Edge cases for the batched cache probes: hit_run / access_run,
including under the non-MGS protocol engines.

``CacheSystem.hit_run`` powers the runtime's batched fast paths, so a
wrong run length would not just misprice a block — it would misclassify
accesses and diverge the machine.  These tests pin the boundaries that
the app workloads rarely exercise: zero-length runs, runs cut at the
first insufficient line, runs straddling a page boundary (where the
second page's lines may be absent or differently privileged), and runs
interrupted by ``sc_pages``'s deferred revocation, which flushes a
page's lines between two probes of the same address range.
"""

import pytest

from repro.hw import CacheSystem
from repro.params import WORD_BYTES, CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime
from tests.machine_state import run_state

COSTS = CostModel()


@pytest.fixture
def cache():
    config = MachineConfig(total_processors=8, cluster_size=4)
    return CacheSystem(config, COSTS)


# ---------------------------------------------------------------------------
# hit_run unit edges
# ---------------------------------------------------------------------------


def test_hit_run_zero_length(cache):
    cache.access(0, 1, 100, False, 0)
    assert cache.hit_run(0, 1, 100, 0, False) == 0
    assert cache.hit_run(0, 1, 100, 0, True) == 0
    # ... and a cold start is a zero-length run at any max.
    assert cache.hit_run(0, 1, 500, 8, False) == 0


def test_hit_run_stops_at_first_cold_line(cache):
    for line in (100, 101, 102):
        cache.access(0, 1, line, False, 0)
    assert cache.hit_run(0, 1, 100, 8, False) == 3
    assert cache.hit_run(0, 1, 101, 8, False) == 2


def test_hit_run_stops_at_insufficient_privilege(cache):
    # Lines 100-101 shared by proc 1; line 102 owned dirty by proc 2.
    cache.access(0, 1, 100, False, 0)
    cache.access(0, 1, 101, False, 0)
    cache.access(0, 2, 102, True, 0)
    assert cache.hit_run(0, 1, 100, 8, False) == 2
    # For writes, shared copies are not enough — ownership is required.
    assert cache.hit_run(0, 1, 100, 8, True) == 0
    cache.access(0, 1, 103, True, 0)
    assert cache.hit_run(0, 1, 103, 8, True) == 1


def test_hit_run_is_read_only(cache):
    cache.access(0, 1, 100, False, 0)
    counts_before = list(cache._counts)
    cache.hit_run(0, 1, 100, 4, False)
    cache.hit_run(0, 1, 100, 4, True)
    assert list(cache._counts) == counts_before


def test_hit_run_across_flush_page(cache):
    """A flush (how every engine implements page invalidation, and how
    sc_pages drains a deferred revocation) must cut the run exactly at
    the flushed page's first line."""
    config = MachineConfig(total_processors=8, cluster_size=4)
    lines_per_page = config.page_size // config.line_size
    for line in range(0, 2 * lines_per_page):
        cache.access(0, 1, line, False, 0)
    assert cache.hit_run(0, 1, 0, 2 * lines_per_page, False) == (
        2 * lines_per_page
    )
    cache.flush_page(0, 1)
    assert cache.hit_run(0, 1, 0, 2 * lines_per_page, False) == lines_per_page


# ---------------------------------------------------------------------------
# access_run == a loop of scalar access calls
# ---------------------------------------------------------------------------


def _twin_caches():
    config = MachineConfig(total_processors=8, cluster_size=4)
    return CacheSystem(config, COSTS), CacheSystem(config, COSTS)


def test_access_run_matches_scalar_loop():
    batched, scalar = _twin_caches()
    # Mixed prior state: line 201 shared elsewhere, 202 dirty elsewhere.
    for c in (batched, scalar):
        c.access(0, 2, 201, False, 0)
        c.access(0, 3, 202, True, 0)
    extras = [7, 11, 13, 17]
    k, total = batched.access_run(0, 1, 200, False, 0, extras, budget=10**9)
    assert k == len(extras)
    expect = sum(
        scalar.access(0, 1, 200 + i, False, 0) + extras[i] for i in range(k)
    )
    assert total == expect
    assert list(batched._counts) == list(scalar._counts)
    assert batched._lines[0] == scalar._lines[0]


def test_access_run_stops_at_guaranteed_hit():
    batched, _ = _twin_caches()
    batched.access(0, 1, 202, False, 0)  # line 2 of the run is a hit
    k, _ = batched.access_run(0, 1, 200, False, 0, [0, 0, 0, 0], budget=10**9)
    assert k == 2  # the hit-run takes over from there


def test_access_run_respects_budget():
    batched, _ = _twin_caches()
    # Budget covers exactly one hardware miss plus its extra: the
    # admission bound is per line — worst *hardware* miss unless the
    # sharer set already outgrew the hardware pointers — not the
    # global worst case.
    budget = batched.worst_hw_miss + 5
    k, total = batched.access_run(0, 1, 300, False, 0, [5, 5, 5], budget)
    assert k == 1
    assert total <= budget
    k0, _ = batched.access_run(0, 1, 400, False, 0, [5], budget=0)
    assert k0 == 0


def test_access_run_prices_software_lines_tightly():
    batched, _ = _twin_caches()
    # Grow line 500's sharer set past the hardware pointers: the next
    # miss is software-serviced, and admission must price it as such.
    for pid in range(2, 2 + batched.config.hw_dir_pointers + 1):
        batched.access(0, pid, 500, False, 0)
    budget = batched.worst_hw_miss + 5
    k, _ = batched.access_run(0, 1, 500, False, 0, [5], budget)
    assert k == 0  # a software-class line does not fit a hardware budget
    k, total = batched.access_run(0, 1, 500, False, 0, [5], budget=10**9)
    assert (k, total) == (1, COSTS.miss_software_dir + 5)


# ---------------------------------------------------------------------------
# the batched paths under the non-MGS engines
# ---------------------------------------------------------------------------


def _run_straddle(protocol: str, fastpath: bool):
    """Block reads/writes crossing a page boundary, plus an invalidation
    between passes so the second pass's run is cut mid-block."""
    config = MachineConfig(
        total_processors=4, cluster_size=2, protocol=protocol
    )
    rt = Runtime(config, options=RunOptions(fastpath=fastpath))
    words_per_page = config.page_size // WORD_BYTES
    nwords = 2 * words_per_page
    arr = rt.array("data", nwords)
    arr.init([float(i) for i in range(nwords)])
    captured = []

    def worker(env):
        # Straddling read: second half of page 0 + first half of page 1.
        base = arr.addr(words_per_page // 2)
        vals = yield from env.read_block(base, words_per_page)
        captured.append((env.pid, 0, sum(vals)))
        yield from env.barrier()
        if env.pid == 0:
            # Invalidate everyone's copies of page 1 (sc_pages defers
            # the revocations until the writer's request drains them).
            yield from env.write(arr.addr(words_per_page), -1.0)
        yield from env.barrier()
        vals = yield from env.read_block(base, words_per_page)
        captured.append((env.pid, 1, sum(vals)))
        yield from env.barrier()

    rt.spawn_all(worker)
    result = rt.run()
    return run_state(rt, result), sorted(captured)


@pytest.mark.parametrize("protocol", ["swdsm", "gcs", "sc_pages"])
def test_page_straddling_runs_non_mgs(protocol):
    fast_state, fast_vals = _run_straddle(protocol, fastpath=True)
    slow_state, slow_vals = _run_straddle(protocol, fastpath=False)
    assert fast_state == slow_state, f"{protocol}: fastpath diverged"
    assert fast_vals == slow_vals
    # The writer's store is observable in everyone's second pass.
    words_per_page = 1024 // WORD_BYTES
    first = {v for pid, p, v in fast_vals if p == 0}
    second = {v for pid, p, v in fast_vals if p == 1}
    assert len(first) == 1
    assert second == {next(iter(first)) - words_per_page - 1.0}
