"""Tests for the repro.net topology/contention models."""

import pytest

from repro.machine import Machine
from repro.net import FixedLatency, Mesh2D, SharedBus, SwitchedFabric, Wire
from repro.params import CostModel, MachineConfig, NetworkConfig
from repro.sim import Simulator


def make_machine(network=None, total=8, cluster=2, delay=1000, **cfg):
    sim = Simulator()
    kwargs = dict(
        total_processors=total, cluster_size=cluster, inter_ssmp_delay=delay
    )
    if network is not None:
        kwargs["network"] = network
    kwargs.update(cfg)
    return sim, Machine(sim, MachineConfig(**kwargs), CostModel())


# ----------------------------------------------------------------------
# model units
# ----------------------------------------------------------------------


def test_fixed_latency_is_stateless():
    model = FixedLatency(1000)
    assert model.transit(0, 1, 4096, 50) == 1050
    assert model.transit(0, 1, 4096, 50) == 1050
    assert not model.queue_cycles


def test_wire_ignores_size_and_nodes():
    model = Wire(5)
    assert model.transit(0, 1, 9999, 10) == 15
    assert model.transit(3, 7, 0, 0) == 5


def test_mesh2d_hop_counts():
    # 16 processors -> 4x4 mesh; row-major layout.
    model = Mesh2D(cluster_size=16, wire_latency=5, hop_latency=2)
    assert model.hops(0, 0) == 0
    assert model.hops(0, 1) == 1
    assert model.hops(0, 5) == 2  # one right, one down
    assert model.hops(0, 15) == 6  # corner to corner
    assert model.transit(0, 15, 64, 0) == 5 + 6 * 2


def test_mesh2d_internal_model_in_machine():
    net = NetworkConfig(internal="mesh", mesh_hop_latency=3)
    sim, m = make_machine(net, total=16, cluster=16)
    arrivals = {}
    m.send(0, 1, lambda: arrivals.setdefault("near", sim.now))
    m.send(0, 15, lambda: arrivals.setdefault("far", sim.now))
    sim.run()
    assert arrivals["near"] == 5 + 1 * 3
    assert arrivals["far"] == 5 + 6 * 3
    assert m.stats.intra_ssmp == 2


#: every kind of machine: the fixed-delay ones tabulate all their
#: routes, the staged ones only their intra-SSMP routes
NETWORKS = {
    "wire": NetworkConfig(),
    "mesh": NetworkConfig(internal="mesh", mesh_hop_latency=3),
    "bus": NetworkConfig(external="bus"),
    "fabric": NetworkConfig(external="fabric", internal="mesh"),
    "lossy": NetworkConfig(drop_rate=0.1, reliable=False),
    "reliable": NetworkConfig(reliable=True),
}
STAGED = {"bus", "fabric", "lossy", "reliable"}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_route_table_is_each_pairs_transit(name):
    """Every tabulated route holds exactly the delay its internal or
    external model would charge; a staged machine tabulates no
    inter-SSMP route."""
    m = make_machine(NETWORKS[name], total=16, cluster=8, delay=777)[1]
    assert m._staged == (name in STAGED)
    size = m.config.control_msg_bytes
    at = 1234
    for src in range(16):
        for dst in range(16):
            src_c, dst_c = m.clusters[src], m.clusters[dst]
            if src_c == dst_c:
                arrival = m.internal.transit(src, dst, size, at)
            elif m._staged:
                assert m.routes[src][dst] is None, (src, dst)
                continue
            else:
                arrival = m.external.transit(src_c, dst_c, size, at)
            assert at + m.routes[src][dst] == arrival, (src, dst)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_staged_machines_stage_only_inter_ssmp_sends(name):
    """An intra-SSMP send always is one heap entry at its tabulated
    delay; an inter-SSMP send is one only on a fixed-delay machine."""
    sim, m = make_machine(NETWORKS[name])
    staged = []
    m._transmit_external = lambda src, dst, *rest: staged.append((src, dst))
    if m.transport is not None:
        m.transport.send = lambda src, dst, *rest: staged.append((src, dst))
    m.send(0, 1, print, ("intra",), at=10)
    m.send(0, 2, print, ("inter",), at=10)
    expected = [(10 + m.routes[0][1], 0, print, ("intra",))]
    if name in STAGED:
        assert staged == [(0, 2)]
    else:
        assert staged == []
        expected.append((10 + 1000, 1, print, ("inter",)))
    assert sorted(sim._heap) == expected


def test_routed_send_pushes_what_schedule_at_pushes():
    """``Machine.send`` copies ``Simulator.schedule_at``'s heap entry and
    sequence step; the two must not drift apart."""
    sim, m = make_machine()
    reference = Simulator()
    for src, dst, at in [(0, 1, 5), (0, 2, 5), (3, 7, 0), (6, 6, 40)]:
        m.send(src, dst, print, (src, dst), at=at)
        reference.schedule_at(at + m.routes[src][dst], print, src, dst)
    assert sim._heap == reference._heap
    assert sim._seq == reference._seq == 4
    sim.now = 100
    with pytest.raises(ValueError, match="into the past"):
        m.send(0, 1, print, at=50)


def test_shared_bus_serializes():
    sim, m = make_machine(NetworkConfig(external="bus", bus_bandwidth=1.0))
    arrivals = []
    m.send(0, 2, lambda: arrivals.append(sim.now), size=1088)
    m.send(0, 2, lambda: arrivals.append(sim.now), size=1088)
    sim.run()
    assert arrivals == [1088 + 1000, 2 * 1088 + 1000]
    assert m.stats.lan_queue_cycles == 1088
    assert m.stats.queue_cycles_by_link["bus"] == 1088


def test_bus_reservation_is_time_ordered():
    """Regression: the seed reserved the LAN at *call* time, so a message
    sent with an earlier thread-local timestamp after a later one queued
    behind the later reservation.  The two-stage model reserves in
    simulator (time, seq) order."""
    sim, m = make_machine(NetworkConfig(external="bus", bus_bandwidth=1.0))
    arrivals = {}
    # Called first, but enters the wire at t=5000.
    m.send(0, 2, lambda: arrivals.setdefault("late", sim.now), at=5000, size=100)
    # Called second with an earlier wire-entry time: must not queue
    # behind the t=5000 reservation.
    m.send(0, 2, lambda: arrivals.setdefault("early", sim.now), at=0, size=100)
    sim.run()
    assert arrivals["early"] == 100 + 1000
    assert arrivals["late"] == 5000 + 100 + 1000
    assert m.stats.lan_queue_cycles == 0


def test_switched_fabric_disjoint_pairs_do_not_contend():
    net = NetworkConfig(external="fabric", link_bandwidth=1.0)
    sim, m = make_machine(net)
    arrivals = {}
    m.send(0, 2, lambda: arrivals.setdefault("a", sim.now), size=500)  # 0->1
    m.send(4, 6, lambda: arrivals.setdefault("b", sim.now), size=500)  # 2->3
    sim.run()
    # Separate links: both pay only their own transfer + delay.
    assert arrivals == {"a": 1500, "b": 1500}
    assert m.stats.lan_queue_cycles == 0


def test_switched_fabric_same_link_is_fifo():
    net = NetworkConfig(external="fabric", link_bandwidth=1.0)
    sim, m = make_machine(net)
    arrivals = []
    m.send(0, 2, lambda: arrivals.append(sim.now), size=500)
    m.send(1, 3, lambda: arrivals.append(sim.now), size=500)  # same 0->1 link
    sim.run()
    assert arrivals == [1500, 2000]
    assert m.stats.queue_cycles_by_link["0->1"] == 500


def test_fabric_beats_bus_under_cross_traffic():
    """The point of the fabric: disjoint cluster pairs in parallel."""

    def total_queue(net):
        sim, m = make_machine(net)
        for src, dst in ((0, 2), (4, 6), (2, 4), (6, 0)):
            m.send(src, dst, lambda: None, size=1000)
        sim.run()
        return m.stats.lan_queue_cycles

    bus = total_queue(NetworkConfig(external="bus", bus_bandwidth=1.0))
    fabric = total_queue(NetworkConfig(external="fabric", link_bandwidth=1.0))
    assert fabric == 0
    assert bus > 0


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------


def test_default_config_builds_paper_models():
    sim, m = make_machine()
    assert m.external.name == "fixed"
    assert m.internal.name == "wire"
    assert m.faults is None
    assert m.transport is None


def test_intra_wire_latency_configurable():
    sim, m = make_machine(intra_wire_latency=9)
    arrivals = []
    m.send(0, 1, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [9]


def test_control_msg_bytes_configurable():
    sim, m = make_machine(control_msg_bytes=128)
    m.send(0, 2, lambda: None)  # default size
    sim.run()
    assert m.stats.inter_ssmp_bytes == 128


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(external="token-ring")
    with pytest.raises(ValueError):
        NetworkConfig(internal="hypercube")
    with pytest.raises(ValueError):
        NetworkConfig(drop_rate=1.0)
    with pytest.raises(ValueError):
        NetworkConfig(bus_bandwidth=0.0)


def test_network_summary_shape():
    sim, m = make_machine()
    m.send(0, 2, lambda: None)
    sim.run()
    summary = m.network_summary()
    assert summary["external_model"] == "fixed"
    assert summary["internal_model"] == "wire"
    assert summary["reliable_transport"] is False
    assert summary["inter_ssmp"] == 1
    assert summary["wire_messages"] == 1
    assert summary["drops"] == 0


def test_switched_fabric_link_names():
    fabric = SwitchedFabric(1000, 4.0)
    assert fabric.link_name(0, 3) == "0->3"
    bus = SharedBus(1000, 1.0)
    assert bus.link_name(0, 3) == "bus"
