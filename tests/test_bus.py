"""Unit tests for the typed protocol message bus."""

import pytest

from repro.core.bus import MessageBus, handles
from repro.core.messages import (
    DIFF_ENTRY_BYTES,
    TABLE2_CLASSES,
    Ack,
    Diff,
    MsgType,
    OneWdata,
    Rdat,
    Rreq,
    message_class,
)
from repro.metrics.transactions import latency_summary, percentile
from repro.params import MachineConfig
from repro.runtime import Runtime


def make_rt():
    config = MachineConfig(total_processors=4, cluster_size=2,
                           inter_ssmp_delay=500)
    return Runtime(config), config


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------

def test_duplicate_registration_raises():
    rt, _ = make_rt()

    class Rogue:
        @handles(Rreq)
        def on_request(self, msg):
            pass

    with pytest.raises(ValueError, match="duplicate handler"):
        rt.protocol.bus.register(Rogue())


def test_missing_handler_is_a_lookup_error():
    rt, config = make_rt()
    bus = MessageBus(rt.machine, config)  # nothing registered
    with pytest.raises(LookupError):
        bus.send(Rreq, 1, 0, 2, 0)


def test_send_derives_clusters_and_reply_swaps_endpoints():
    rt, config = make_rt()
    bus = MessageBus(rt.machine, config)
    seen = []

    class Echo:
        @handles(Rreq)
        def on_request(self, msg):
            seen.append(msg)
            bus.reply(Rdat, msg, data=None)

        @handles(Rdat)
        def on_data(self, msg):
            seen.append(msg)

    bus.register(Echo())
    bus.send(Rreq, 7, 1, 2, 5)
    rt.sim.run()
    request, grant = seen
    assert (request.vpn, request.txn) == (grant.vpn, grant.txn) == (7, 5)
    assert (request.src_pid, request.src_cluster) == (1, 0)
    assert (request.dst_pid, request.dst_cluster) == (2, 1)
    assert (grant.src_pid, grant.src_cluster) == (2, 1)
    assert (grant.dst_pid, grant.dst_cluster) == (1, 0)


def test_registry_covers_table2():
    assert set(TABLE2_CLASSES) == set(MsgType)
    for mtype, cls in TABLE2_CLASSES.items():
        assert cls.mtype is mtype
        assert cls.label == mtype.value
        assert message_class(mtype) is cls


# ----------------------------------------------------------------------
# wire sizes
# ----------------------------------------------------------------------

def test_wire_bytes_by_message_class():
    _, config = make_rt()
    common = dict(vpn=1, src_pid=0, src_cluster=0, dst_pid=2, dst_cluster=1,
                  txn=0)
    control = config.control_msg_bytes
    assert Rreq(**common).wire_bytes(config) == control
    assert Ack(**common).wire_bytes(config) == control
    assert Rdat(**common, data=None).wire_bytes(config) == (
        control + config.page_size
    )
    assert OneWdata(**common, indices=(), values=()).wire_bytes(config) == (
        control + config.page_size
    )
    diff = Diff(**common, indices=[3, 5, 9], values=[1.0, 2.0, 3.0])
    assert diff.wire_bytes(config) == control + 3 * DIFF_ENTRY_BYTES


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------

def run_two_cluster_workload(rt):
    wpp = rt.config.words_per_page
    arr = rt.array("a", 2 * wpp, home=0)
    arr.init([0.0] * (2 * wpp))
    lk = rt.create_lock()

    def worker(env):
        for _ in range(2):
            yield from env.lock(lk)
            v = yield from env.read(arr.addr(env.pid))
            yield from env.write(arr.addr(env.pid), v + 1.0)
            # blind write to the second page: a WREQ fault
            yield from env.write(arr.addr(wpp + env.pid), v)
            yield from env.unlock(lk)
            yield from env.barrier()

    rt.spawn_all(worker)
    return rt.run()


def test_flow_summary_counts_and_bytes():
    rt, config = make_rt()
    result = run_two_cluster_workload(rt)
    flows = result.message_flows
    assert flows, "no message flows recorded"
    none = {"count": 0}
    req = flows.get("RREQ", none)["count"] + flows.get("WREQ", none)["count"]
    grants = flows.get("RDAT", none)["count"] + flows.get("WDAT", none)["count"]
    assert req > 0
    assert req == grants, "every request gets exactly one grant"
    assert flows["WDAT"]["bytes"] == flows["WDAT"]["count"] * (
        config.control_msg_bytes + config.page_size
    )
    for flow in flows.values():
        assert flow["latency_cycles"] >= flow["count"], (
            "wire latency must be positive per delivery"
        )


def test_transaction_latencies_exported():
    rt, _ = make_rt()
    result = run_two_cluster_workload(rt)
    txns = result.transactions
    assert set(txns) == {"fault", "release"}
    for kind in ("fault", "release"):
        s = txns[kind]
        assert s["count"] > 0
        # empty-DUQ releases legitimately complete in 0 cycles
        assert 0 <= s["p50"] <= s["p95"] <= s["max"]
        assert s["max"] > 0
    assert not rt.protocol.bus.open_txns, "all transactions must complete"


def test_taps_observe_deliveries():
    rt, _ = make_rt()
    seen = []
    rt.protocol.bus.add_tap(lambda msg, sent, now: seen.append((msg.label, now)))
    run_two_cluster_workload(rt)
    assert seen
    delivered = sum(f.count for f in rt.protocol.bus.flows.values())
    assert len(seen) == delivered
    times = [t for _, t in seen]
    assert times == sorted(times)


def test_messages_carry_their_transaction_id():
    rt, _ = make_rt()
    by_txn = {}
    rt.protocol.bus.add_tap(
        lambda msg, sent, now: by_txn.setdefault(msg.txn, []).append(msg.label)
    )
    run_two_cluster_workload(rt)
    assert all(txn >= 0 for txn in by_txn), "untracked protocol message"
    # A remote fault's request/grant chain shares one transaction id.
    chains = [ls for ls in by_txn.values() if "WREQ" in ls]
    assert chains
    assert any("WDAT" in ls for ls in chains)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

def test_nearest_rank_percentile():
    samples = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 100
    assert percentile(samples, 100) == 100
    assert percentile([7], 50) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_summary_shape():
    assert latency_summary([]) == {
        "count": 0, "mean": 0.0, "p50": 0, "p95": 0, "max": 0,
    }
    s = latency_summary([100, 200, 300])
    assert s["count"] == 3
    assert s["mean"] == 200.0
    assert s["p50"] == 200
    assert s["max"] == 300
