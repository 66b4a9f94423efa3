"""Table 2 completeness: every protocol message type exists and flows on
the wire under a mixed workload; and no message is mutated once sent.
That each type has exactly one handler is checked for every engine in
``test_protocol_conformance.py``."""

import dataclasses

from repro.core.messages import TABLE2_CLASSES, MsgType, ProtocolMessage
from repro.params import MachineConfig
from repro.runtime import Runtime


def test_table2_message_set_is_complete():
    expected = {
        "UPGRADE", "PINV_ACK",  # Local Client -> Remote Client
        "PINV", "UP_ACK",  # Remote Client -> Local Client
        "RREQ", "WREQ", "REL",  # Local Client -> Server
        "RDAT", "WDAT", "RACK",  # Server -> Local Client
        "ACK", "DIFF", "1WDATA", "WNOTIFY",  # Remote Client -> Server
        "INV", "1WINV",  # Server -> Remote Client
    }
    assert {m.value for m in MsgType} == expected


def test_every_type_is_a_documented_message_class():
    for mtype, cls in TABLE2_CLASSES.items():
        assert issubclass(cls, ProtocolMessage)
        assert cls.label == mtype.value
        msg = cls.__doc__ or ""
        assert msg.strip(), f"{cls.__name__} must document its Table 2 arc"


def _mixed_workload() -> Runtime:
    """A lock/barrier multi-writer run that sends every Table 2 message.

    Three clusters share two pages.  The mix is chosen so that every arc
    fires: remote read and blind-write faults (RREQ/RDAT, WREQ/WDAT),
    read-to-write upgrades (UPGRADE/UP_ACK/WNOTIFY), release rounds with
    dirty and clean replicas (REL/INV/DIFF/ACK/RACK), TLB shootdowns of
    second processors (PINV/PINV_ACK), and a single-writer round
    (1WINV/1WDATA).  Returned spawned, not yet run.
    """
    config = MachineConfig(total_processors=6, cluster_size=2,
                           inter_ssmp_delay=500)
    rt = Runtime(config)
    wpp = config.words_per_page
    arr = rt.array("shared", 2 * wpp, home=0)
    arr.init([0.0] * (2 * wpp))
    lk = rt.create_lock()

    def worker(env):
        for it in range(3):
            yield from env.lock(lk)
            v = yield from env.read(arr.addr(0))
            if env.pid == 0:
                # resident read copy upgraded in place
                yield from env.write(arr.addr(0), v + 1.0)
            if env.pid == 2 and it == 0:
                # second writer (multi-writer round with foreign diff)
                yield from env.write(arr.addr(1), v + 2.0)
            if env.pid == 4 and it == 0:
                # blind write to an unreplicated page: WREQ/WDAT
                yield from env.write(arr.addr(wpp), 7.0)
            yield from env.unlock(lk)
            yield from env.barrier()

    rt.spawn_all(worker)
    return rt


def test_mixed_workload_exercises_all_sixteen_types():
    rt = _mixed_workload()
    result = rt.run()

    flows = result.message_flows
    for mtype in MsgType:
        assert flows.get(mtype.value, {"count": 0})["count"] > 0, (
            f"{mtype.value} never delivered"
        )
    # and the bus saw exactly what the machine's label counters saw
    for label, flow in flows.items():
        assert rt.machine.stats.by_label[label] == flow["count"]


def test_messages_are_never_mutated_after_send():
    """Messages are slotted, not frozen: this pins that no handler (nor
    anything after it) rebinds a field of a delivered message.  Fields
    are compared by identity, since page arrays are shared with frames
    by design and may change contents."""
    rt = _mixed_workload()
    seen = []

    def tap(msg, sent_at, now):
        fields = dataclasses.fields(msg)
        seen.append((msg, [(f.name, getattr(msg, f.name)) for f in fields]))

    rt.protocol.bus.add_tap(tap)
    rt.run()

    assert {m.value for m in MsgType} <= {msg.label for msg, _ in seen}
    for msg, fields in seen:
        for name, value in fields:
            assert getattr(msg, name) is value, (
                f"{msg.describe()}: field {name} rebound after delivery"
            )
