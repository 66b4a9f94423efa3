"""Unit tests for the machine model: latencies, occupancy, stolen time."""

from repro.machine import Machine
from repro.params import CostModel, MachineConfig
from repro.sim import Simulator


def make_machine(delay=1000):
    sim = Simulator()
    config = MachineConfig(total_processors=8, cluster_size=2, inter_ssmp_delay=delay)
    return sim, Machine(sim, config, CostModel())


def test_intra_cluster_wire_latency():
    sim, m = make_machine()
    arrivals = []
    m.send(0, 1, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [5]


def test_inter_cluster_wire_latency():
    sim, m = make_machine(delay=1234)
    arrivals = []
    m.send(0, 2, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [1234]


def test_send_at_future_time():
    sim, m = make_machine(delay=100)
    arrivals = []
    m.send(0, 2, lambda: arrivals.append(sim.now), at=500)
    sim.run()
    assert arrivals == [600]


def test_message_stats_split_by_network():
    sim, m = make_machine()
    m.send(0, 1, lambda: None, label="A")  # intra
    m.send(0, 2, lambda: None, label="B")  # inter
    m.send(2, 3, lambda: None, label="B")  # intra
    sim.run()
    assert m.stats.intra_ssmp == 2
    assert m.stats.inter_ssmp == 1
    assert m.stats.by_label["A"] == 1
    assert m.stats.by_label["B"] == 2


def test_occupy_serializes_handlers():
    sim, m = make_machine(delay=0)
    completions = []

    def handler(tag, cycles):
        completions.append((tag, m.occupy(2, cycles)))

    m.send(0, 2, handler, ("first", 100))
    m.send(1, 2, handler, ("second", 50))
    sim.run()
    # Both arrive at t=0; the second must start after the first finishes.
    assert completions == [("first", 100), ("second", 150)]


def test_occupy_idle_gap_resets_start():
    sim, m = make_machine(delay=0)
    completions = []
    m.send(0, 2, lambda: completions.append(m.occupy(2, 10)))
    sim.run()
    sim.schedule(1000, lambda: completions.append(m.occupy(2, 10)))
    sim.run()
    # The second handler runs at t=1000, long after the first finished at
    # t=10, so occupancy starts fresh: completion 1010, not 1020.
    assert completions == [10, 1010]


def test_stolen_cycles_accumulate_and_drain():
    sim, m = make_machine(delay=0)
    m.send(0, 2, lambda: m.occupy(2, 75))
    sim.run()
    assert m.take_stolen(2) == 75
    assert m.take_stolen(2) == 0
    assert m.processors[2].handler_cycles_total == 75
    assert m.processors[2].messages_handled == 1
