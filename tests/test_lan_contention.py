"""Tests for the LAN contention extension (paper section 4.2.2 notes the
fixed-latency model ignores contention; the shared-bus network model,
``NetworkConfig(external="bus", bus_bandwidth=...)``, closes that)."""

import pytest

from repro.machine import Machine
from repro.params import CostModel, MachineConfig, NetworkConfig
from repro.sim import Simulator
from repro.apps import jacobi


def lan(bandwidth):
    """The shared bus at ``bandwidth``, or the paper's network for 0."""
    if bandwidth == 0.0:
        return NetworkConfig()
    return NetworkConfig(external="bus", bus_bandwidth=bandwidth)


def make_machine(bandwidth, delay=1000):
    sim = Simulator()
    config = MachineConfig(
        total_processors=4, cluster_size=2,
        inter_ssmp_delay=delay, network=lan(bandwidth),
    )
    return sim, Machine(sim, config, CostModel())


def test_zero_bandwidth_keeps_fixed_latency_model():
    sim, m = make_machine(bandwidth=0.0)
    arrivals = []
    m.send(0, 2, lambda: arrivals.append(sim.now), size=1088)
    m.send(0, 2, lambda: arrivals.append(sim.now), size=1088)
    sim.run()
    assert arrivals == [1000, 1000]
    assert m.stats.lan_queue_cycles == 0


def test_messages_serialize_on_the_link():
    # 1 byte/cycle: a 1088-byte page transfer occupies the link 1088 cycles.
    sim, m = make_machine(bandwidth=1.0)
    arrivals = []
    m.send(0, 2, lambda: arrivals.append(sim.now), size=1088)
    m.send(0, 2, lambda: arrivals.append(sim.now), size=1088)
    sim.run()
    assert arrivals[0] == 1088 + 1000
    assert arrivals[1] == 2 * 1088 + 1000  # queued behind the first
    assert m.stats.lan_queue_cycles == 1088
    assert m.stats.inter_ssmp_bytes == 2 * 1088


def test_intra_cluster_messages_do_not_touch_the_lan():
    sim, m = make_machine(bandwidth=1.0)
    arrivals = []
    m.send(0, 1, lambda: arrivals.append(sim.now), size=4096)
    sim.run()
    assert arrivals == [5]  # intra wire latency only
    assert m.stats.inter_ssmp_bytes == 0


def test_higher_bandwidth_shortens_transfers():
    times = {}
    for bw in (1.0, 16.0):
        sim, m = make_machine(bandwidth=bw)
        arrivals = []
        m.send(0, 2, lambda: arrivals.append(sim.now), size=1088)
        sim.run()
        times[bw] = arrivals[0]
    assert times[16.0] < times[1.0]


@pytest.mark.parametrize("bandwidth", [0.5, 4.0])
def test_application_correct_under_contention(bandwidth):
    config = MachineConfig(
        total_processors=8, cluster_size=2,
        inter_ssmp_delay=500, network=lan(bandwidth),
    )
    run = jacobi.run(config, jacobi.JacobiParams(n=24, iterations=2))
    assert run.valid
    assert run.result.total_time > 0


def test_contention_slows_communication_bound_runs():
    def time_at(bw):
        config = MachineConfig(
            total_processors=8, cluster_size=1,
            inter_ssmp_delay=500, network=lan(bw),
        )
        return jacobi.run(
            config, jacobi.JacobiParams(n=24, iterations=2, compute_per_point=20)
        ).total_time

    assert time_at(0.25) > time_at(0.0)  # a slow shared link hurts
