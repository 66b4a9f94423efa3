"""The release-consistency race detector and its value oracle.

Directed programs exercise the happens-before rules (locks, barriers,
exemptions); coherence bugs that lose a locked update are caught as
stale reads; then the five paper applications are certified data-race-
free and value-correct at word granularity, and a deliberately racy
workload is flagged.
"""

import pytest

from repro.analysis import (
    Race,
    RaceDetector,
    RaceError,
    StaleRead,
    apply_mutation,
)
from repro.apps import barnes_hut, jacobi, matmul, tsp, water, water_kernel
from repro.params import MachineConfig
from repro.runtime import Runtime


def make_rt(total=4, cluster=2, **kw):
    config = MachineConfig(total_processors=total, cluster_size=cluster)
    return Runtime(config, analysis="races", **kw)


def shared_word(rt):
    arr = rt.array("shared", rt.config.words_per_page, home=0)
    arr.init([0.0] * rt.config.words_per_page)
    return arr


def locked_counter(engine="mgs", mutation=None):
    """Four processors on two SSMPs each add 1.0 three times under one
    lock; returns the runtime and the final count."""
    config = MachineConfig(total_processors=4, cluster_size=2, protocol=engine)
    rt = Runtime(config, analysis="races")
    arr = shared_word(rt)
    lk = rt.create_lock()
    if mutation is not None:
        apply_mutation(rt, mutation)

    def worker(env):
        for _ in range(3):
            yield from env.lock(lk)
            v = yield from env.read(arr.addr(0))
            yield from env.write(arr.addr(0), v + 1.0)
            yield from env.unlock(lk)
        yield from env.barrier()

    rt.spawn_all(worker)
    rt.run()
    return rt, arr.snapshot()[0]


class TestDirectedPrograms:
    def test_locked_counter_is_race_free(self):
        rt, count = locked_counter()
        rt.race_detector.certify()
        assert count == 3.0 * rt.config.total_processors

    def test_unlocked_writes_are_flagged(self):
        rt = make_rt()
        arr = shared_word(rt)

        def worker(env):
            yield from env.write(arr.addr(0), float(env.pid))
            yield from env.barrier()

        rt.spawn_all(worker)
        rt.run()
        races = rt.race_detector.races
        assert races, "unlocked write-write conflict was not flagged"
        assert all(r.kind == "write" for r in races)
        with pytest.raises(RaceError, match="data race"):
            rt.race_detector.certify()

    def test_unlocked_read_of_write_is_flagged(self):
        rt = make_rt()
        arr = shared_word(rt)

        def worker(env):
            if env.pid == 0:
                yield from env.write(arr.addr(0), 1.0)
            else:
                yield from env.compute(5000)
                yield from env.read(arr.addr(0))
            yield from env.barrier()

        rt.spawn_all(worker)
        rt.run()
        assert any(
            r.prev_kind == "write" and r.kind in ("read", "write")
            for r in rt.race_detector.races
        )

    def test_barrier_orders_phases(self):
        rt = make_rt()
        arr = shared_word(rt)

        def worker(env):
            if env.pid == 0:
                yield from env.write(arr.addr(0), 7.0)
            yield from env.barrier()
            yield from env.read(arr.addr(0))  # ordered: after the barrier
            yield from env.barrier()
            if env.pid == 1:
                yield from env.write(arr.addr(0), 8.0)  # ordered too
            yield from env.barrier()

        rt.spawn_all(worker)
        rt.run()
        rt.race_detector.certify()

    def test_exemption_suppresses_declared_races(self):
        rt = make_rt()
        arr = shared_word(rt)
        rt.annotate_benign_race(arr.addr(0), words=1, reason="test")

        def worker(env):
            yield from env.write(arr.addr(0), float(env.pid))
            yield from env.write(arr.addr(1), float(env.pid))  # not exempt
            yield from env.barrier()

        rt.spawn_all(worker)
        rt.run()
        assert all(r.addr != arr.addr(0) for r in rt.race_detector.races)
        assert any(r.addr == arr.addr(1) for r in rt.race_detector.races)

    def test_word_granularity_allows_false_sharing(self):
        """Different words of one page, different procs: no race."""
        rt = make_rt()
        arr = shared_word(rt)

        def worker(env):
            yield from env.write(arr.addr(env.pid), 1.0)
            yield from env.barrier()

        rt.spawn_all(worker)
        rt.run()
        rt.race_detector.certify()

    @pytest.mark.parametrize(
        "op", ["read", "write", "read_block", "write_block", "read_many"]
    )
    def test_block_accesses_are_tracked(self, op):
        """Every memory operation Env binds is recorded: proc 0 writes
        word 0 while proc 1 reaches it, unlocked, through ``op``."""
        rt = make_rt()
        arr = shared_word(rt)
        a = arr.addr(0)
        accesses = {
            "read": lambda env: env.read(a),
            "write": lambda env: env.write(a, 2.0),
            "read_block": lambda env: env.read_block(a, 2),
            "write_block": lambda env: env.write_block(a, [2.0, 3.0]),
            "read_many": lambda env: env.read_many((a, arr.addr(1))),
        }

        def worker(env):
            if env.pid == 0:
                yield from env.write(a, 1.0)
            elif env.pid == 1:
                yield from accesses[op](env)
            yield from env.barrier()

        rt.spawn_all(worker)
        rt.run()
        races = rt.race_detector.races
        assert [(r.addr, {r.prev_pid, r.pid}) for r in races] == [(a, {0, 1})]

    def test_race_describe(self):
        race = Race(addr=0x100, vpn=0, prev_pid=1, prev_kind="write",
                    pid=2, kind="read")
        assert "write by proc 1" in race.describe()
        assert "races read by proc 2" in race.describe()


class TestValueOracle:
    """A race-free read must return the last write ordered before it."""

    def test_unmutated_gcs_counter_certifies(self):
        rt, count = locked_counter("gcs")
        assert rt.race_detector.stale_reads == []
        rt.race_detector.certify()
        assert count == 12.0

    @pytest.mark.parametrize(
        "mutation", ["gcs_dropped_write_notice", "gcs_stale_version"]
    )
    def test_lost_update_is_a_stale_read(self, mutation):
        """Both gcs staleness mutations lose increments of a properly
        locked counter; the race check alone certifies that run."""
        rt, count = locked_counter("gcs", mutation)
        assert count < 12.0
        with pytest.raises(RaceError, match="0 data race.*stale read"):
            rt.race_detector.certify()
        assert rt.race_detector.stale_reads

    def test_gcs_water_kernel_reads_stale_values_within_an_ssmp(self):
        """Pins ROADMAP item 2's known gcs bug: water-kernel at P=8, C=2
        (unoptimized) is race-free yet reads stale values, and the first
        such read's reader and last writer share an SSMP.  This flips
        when item 2(c) fixes or deletes gcs."""
        detectors = []

        def hook(rt):
            detectors.append(RaceDetector(rt))

        Runtime.construction_hooks.append(hook)
        try:
            run = water_kernel.run(
                MachineConfig(total_processors=8, cluster_size=2,
                              protocol="gcs"),
                water_kernel.WaterKernelParams(n_molecules=32,
                                               optimized=False),
            )
        finally:
            Runtime.construction_hooks.remove(hook)
        assert not run.valid
        (detector,) = detectors
        with pytest.raises(RaceError, match="0 data race.*stale read"):
            detector.certify()
        first = detector.stale_reads[0]
        assert first.cluster == first.writer_cluster

    def test_stale_read_describe(self):
        stale = StaleRead(addr=0x100, vpn=0, pid=3, cluster=1, value=1.0,
                          writer=2, writer_cluster=1, written=2.0)
        assert "proc 3 (SSMP 1) read 1.0" in stale.describe()
        assert "by proc 2 (SSMP 1), wrote 2.0" in stale.describe()


#: the five paper applications with the small shapes test_apps.py uses
PAPER_APPS = [
    ("jacobi", jacobi, jacobi.JacobiParams(n=24, iterations=3)),
    ("matmul", matmul, matmul.MatmulParams(n=12)),
    ("tsp", tsp, tsp.TSPParams(ncities=7)),
    ("water", water, water.WaterParams(n_molecules=19, iterations=2)),
    (
        "barnes-hut",
        barnes_hut,
        barnes_hut.BarnesHutParams(n_bodies=24, iterations=2),
    ),
]


@pytest.mark.parametrize(
    "name,module,params", PAPER_APPS, ids=[n for n, _, _ in PAPER_APPS]
)
def test_paper_apps_certified_race_free(name, module, params):
    """Every paper application is data-race-free at word granularity
    (modulo its documented benign-race annotations)."""
    detectors = []

    def hook(rt):
        detectors.append(RaceDetector(rt))

    Runtime.construction_hooks.append(hook)
    try:
        app = module.run(
            MachineConfig(total_processors=4, cluster_size=2), params
        )
    finally:
        Runtime.construction_hooks.remove(hook)
    assert app.valid
    (detector,) = detectors
    detector.certify()
