"""Block accesses that straddle a page boundary under the non-MGS
protocol engines.

A block read or write whose words cross a page boundary walks lines of
two pages, and the second page's lines may be absent or differently
privileged.  An invalidation between two passes over the same range
(``sc_pages`` defers the revocation until the writer's request drains
it) cuts the second pass's walk mid-block.  The fast path must leave the
machine in exactly the state the word-by-word loop does.
"""

import pytest

from repro.params import WORD_BYTES, MachineConfig
from repro.runtime import RunOptions, Runtime
from tests.machine_state import run_state


def _run_straddle(protocol: str, fastpath: bool):
    """Block reads crossing a page boundary, plus an invalidation
    between passes so the second pass's walk is cut mid-block."""
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
