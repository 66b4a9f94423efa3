"""End-to-end smoke tests: tiny programs across machine shapes."""

import pytest

from repro import MachineConfig, Runtime


def incrementer(counter_addr, lock, iters):
    def worker(env):
        for _ in range(iters):
            yield from env.lock(lock)
            v = yield from env.read(counter_addr)
            yield from env.write(counter_addr, v + 1)
            yield from env.unlock(lock)
        yield from env.barrier()

    return worker


@pytest.mark.parametrize("cluster_size", [1, 2, 4, 8])
def test_locked_counter_all_cluster_sizes(cluster_size, engine):
    config = MachineConfig(
        total_processors=8, cluster_size=cluster_size, protocol=engine
    )
    rt = Runtime(config)
    arr = rt.array("counter", 1)
    arr.init([0.0])
    lock = rt.create_lock()
    iters = 5
    rt.spawn_all(incrementer(arr.addr(0), lock, iters))
    result = rt.run(max_events=2_000_000)
    assert arr.snapshot()[0] == 8 * iters
    assert result.total_time > 0
    rt.protocol.check_invariants()


def test_disjoint_writers_merge(engine):
    """Each processor writes its own slice of one page: the multiple
    writer protocol must merge every diff at the final barrier."""
    config = MachineConfig(total_processors=4, cluster_size=1, protocol=engine)
    rt = Runtime(config)
    arr = rt.array("page", 64)
    arr.init([0.0] * 64)

    def worker(env):
        base = env.pid * 16
        for i in range(16):
            yield from env.write(arr.addr(base + i), float(env.pid * 100 + i))
        yield from env.barrier()

    rt.spawn_all(worker)
    rt.run(max_events=2_000_000)
    snap = arr.snapshot()
    for pid in range(4):
        for i in range(16):
            assert snap[pid * 16 + i] == pid * 100 + i


def test_breakdown_sums_to_total(engine):
    config = MachineConfig(total_processors=4, cluster_size=2, protocol=engine)
    rt = Runtime(config)
    arr = rt.array("data", 32)
    arr.init([1.0] * 32)

    def worker(env):
        acc = 0.0
        for i in range(32):
            acc += yield from env.read(arr.addr(i))
        yield from env.compute(100)
        yield from env.barrier()

    rt.spawn_all(worker)
    result = rt.run(max_events=2_000_000)
    bd = result.breakdown()
    assert bd["user"] > 0
    total = sum(bd.values())
    assert total == pytest.approx(result.total_time, rel=0.01)
