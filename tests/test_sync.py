"""Unit tests for the MGS lock and tree barrier."""

from repro.machine import Machine
from repro.params import CostModel, MachineConfig
from repro.sim import Simulator
from repro.sync import MGSLock, TreeBarrier


def make_lock(protocol, nclusters=4, cluster_size=2, delay=1000, home_cluster=0):
    sim = Simulator()
    config = MachineConfig(
        total_processors=nclusters * cluster_size,
        cluster_size=cluster_size,
        inter_ssmp_delay=delay,
        protocol=protocol,
    )
    machine = Machine(sim, config, CostModel())
    lock = MGSLock(machine, config, CostModel(), lock_id=0, home_cluster=home_cluster)
    return sim, machine, lock


class TestMGSLock:
    def test_local_acquire_is_hit(self, engine):
        sim, _m, lock = make_lock(engine)
        got = []
        lock.acquire(0, lambda: got.append(sim.now))
        sim.run()
        assert got and lock.stats.hits == 1
        assert lock.stats.token_transfers == 0

    def test_remote_acquire_moves_token(self, engine):
        sim, _m, lock = make_lock(engine)
        got = []
        lock.acquire(4, lambda: got.append(sim.now))  # cluster 2
        sim.run()
        assert got
        assert lock.stats.hits == 0
        assert lock.stats.token_transfers == 1
        assert lock.token_cluster == 2
        # Token moved through 3+ inter-SSMP hops: latency >= 3 delays.
        assert got[0] >= 3000

    def test_repeated_same_cluster_acquires_hit_after_transfer(self, engine):
        sim, _m, lock = make_lock(engine)
        order = []

        def chain(pid, times):
            def acquired():
                order.append((pid, sim.now))
                if times > 1:
                    lock.release(pid, lambda: chain(pid, times - 1))
                else:
                    lock.release(pid, lambda: None)

            lock.acquire(pid, acquired)

        chain(4, 5)
        sim.run()
        assert len(order) == 5
        assert lock.stats.acquires == 5
        assert lock.stats.hits == 4  # all but the first (token transfer)

    def test_mutual_exclusion_under_contention(self, engine):
        sim, _m, lock = make_lock(engine)
        held = {"n": 0, "max": 0}
        done = []

        def worker(pid):
            def acquired():
                held["n"] += 1
                held["max"] = max(held["max"], held["n"])
                def releasing():
                    held["n"] -= 1
                    done.append(pid)
                sim.schedule(500, lock.release, pid, releasing)

            lock.acquire(pid, acquired)

        for pid in range(8):
            worker(pid)
        sim.run(max_events=100_000)
        assert sorted(done) == list(range(8))
        assert held["max"] == 1

    def test_local_waiters_served_before_handoff(self, engine):
        sim, _m, lock = make_lock(engine)
        order = []

        def make_cb(pid):
            def acquired():
                order.append(pid)
                sim.schedule(100, lock.release, pid, lambda: None)
            return acquired

        # Proc 0 holds; proc 1 (same cluster) and proc 4 (remote) wait.
        lock.acquire(0, make_cb(0))
        sim.schedule(10, lock.acquire, 1, make_cb(1))
        sim.schedule(10, lock.acquire, 4, make_cb(4))
        sim.run(max_events=100_000)
        assert order == [0, 1, 4]

    def test_hit_ratio_property(self, engine):
        sim, _m, lock = make_lock(engine)
        lock.stats.acquires = 10
        lock.stats.hits = 7
        assert lock.stats.hit_ratio == 0.7

    def test_single_cluster_never_transfers(self, engine):
        sim, _m, lock = make_lock(engine, nclusters=1, cluster_size=8, delay=0)
        done = []
        for pid in range(8):
            lock.acquire(pid, lambda pid=pid: sim.schedule(
                10, lock.release, pid, lambda: done.append(pid)))
        sim.run(max_events=100_000)
        assert len(done) == 8
        assert lock.stats.token_transfers == 0
        assert lock.stats.hit_ratio == 1.0


class TestTreeBarrier:
    def _run_barrier(self, protocol, nclusters, cluster_size, delay=1000):
        sim = Simulator()
        config = MachineConfig(
            total_processors=nclusters * cluster_size,
            cluster_size=cluster_size,
            inter_ssmp_delay=delay,
            protocol=protocol,
        )
        machine = Machine(sim, config, CostModel())
        barrier = TreeBarrier(machine, config, CostModel())
        released = []
        for pid in range(config.total_processors):
            sim.schedule(pid * 13, barrier.arrive, pid,
                         lambda pid=pid: released.append((pid, sim.now)))
        sim.run(max_events=100_000)
        return config, barrier, released

    def test_all_released_hierarchical(self, engine):
        config, barrier, released = self._run_barrier(engine, 4, 2)
        assert len(released) == 8
        assert barrier.episodes == 1
        # Nobody is released before the last arrival (t = 7*13 = 91).
        assert min(t for _p, t in released) >= 91

    def test_all_released_flat(self, engine):
        config, barrier, released = self._run_barrier(engine, 1, 8)
        assert len(released) == 8
        assert barrier.episodes == 1

    def test_barrier_reusable(self, engine):
        sim = Simulator()
        config = MachineConfig(total_processors=4, cluster_size=2,
                               inter_ssmp_delay=100, protocol=engine)
        machine = Machine(sim, config, CostModel())
        barrier = TreeBarrier(machine, config, CostModel())
        rounds = {pid: 0 for pid in range(4)}

        def arrive(pid):
            def released():
                rounds[pid] += 1
                if rounds[pid] < 3:
                    sim.schedule(5, barrier.arrive, pid, released)
            barrier.arrive(pid, released)

        for pid in range(4):
            sim.schedule(pid, arrive, pid)
        sim.run(max_events=100_000)
        assert all(v == 3 for v in rounds.values())
        assert barrier.episodes == 3

    def test_hierarchical_message_count(self, engine):
        """Two inter-SSMP messages per non-root SSMP per episode (combine
        + release) is the paper's minimum; the root combines locally."""
        sim = Simulator()
        config = MachineConfig(total_processors=8, cluster_size=2,
                               inter_ssmp_delay=100, protocol=engine)
        machine = Machine(sim, config, CostModel())
        barrier = TreeBarrier(machine, config, CostModel())
        done = []
        for pid in range(8):
            barrier.arrive(pid, lambda: done.append(1))
        sim.run(max_events=100_000)
        assert len(done) == 8
        # 3 non-root clusters send combines; root sends 3 remote releases.
        assert machine.stats.inter_ssmp == 6
