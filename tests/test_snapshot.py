"""``Runtime.snapshot``: its field inventory and its digest sensitivity.

Phase replay applies a recorded phase whenever the snapshot digest
repeats, and the model checker merges states whose digests agree, so
both are only as sound as the snapshot is complete.  Two tests make that
a checked property instead of an argument:

* the **inventory** pins, per component, which attributes are state
  (reported by the component's ``state()``) and which are declared
  statistics, configuration, sub-components with their own ``state()``,
  thread-scheduling bookkeeping, or machinery that switches replay off.  A
  component that gains an attribute in none of these lists fails it;
* the **sensitivity** test takes a live mid-run ``Runtime`` under every
  engine, perturbs each state attribute in turn (in the style of
  :mod:`repro.analysis.mutations`), and asserts the replay digest
  changes.  A perturbation table that drifts from the inventory fails
  too, so a new state attribute needs both an entry and a witness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bus import MessageBus
from repro.core.engine import engine_class, engine_names
from repro.core.page import HomePage, PageFrame, Waiter
from repro.hw import CacheSystem
from repro.machine import Machine
from repro.machine.machine import ProcessorState
from repro.net.interconnect import (
    FixedLatency,
    Mesh2D,
    SharedBus,
    SwitchedFabric,
    Wire,
)
from repro.params import MachineConfig, NetworkConfig
from repro.protocols.mgs.duq import DUQ
from repro.runtime import Runtime
from repro.runtime.replay import PhaseRecorder
from repro.runtime.thread import ThreadContext
from repro.svm import TLB
from repro.svm.tlb import MapMode
from repro.sync import MGSLock, TreeBarrier
from repro.sync.mgs_lock import _Waiter

ENGINES = engine_names()

#: base :class:`~repro.core.engine.Protocol` attributes, every engine
_PROTOCOL = {
    "stats": {"stats", "page_stats"},
    "config": {
        "sim", "machine", "aspace", "cache", "config", "costs", "options",
        "cluster_size", "words_per_page", "lines_per_page", "words_per_line",
    },
    "parts": {"bus", "tlbs"},
}


def _engine(state: set[str], config: frozenset = frozenset()) -> dict:
    return {
        "state": {"frames", "homes"} | state,
        "stats": _PROTOCOL["stats"],
        "config": _PROTOCOL["config"] | config,
        "parts": _PROTOCOL["parts"],
    }


#: component class -> category -> attribute names.  Only ``state``
#: reaches the snapshot.  ``parts`` are sub-components reporting their
#: own state; ``sched`` is thread-scheduling bookkeeping, settled at every
#: phase boundary; ``off`` is machinery whose presence disables replay;
#: ``index`` is a lookup structure rebuilt from reported state.
INVENTORY: dict[type, dict[str, set[str]]] = {
    Runtime: {
        "parts": {
            "machine", "cache", "protocol", "barrier_obj", "locks", "threads",
        },
        "config": {
            "config", "costs", "quantum", "options", "aspace",
        },
        # quiescent at every phase boundary; the model checker
        # canonicalizes pending events itself
        "sched": {
            "sim", "envs", "phase_recorder", "_phase_factory",
            "_phase_count", "_phase_keys",
        },
        "off": {"sanitizer", "race_detector"},
    },
    ThreadContext: {
        "state": {"time", "last_yield"},
        "stats": {"user", "lock", "barrier", "mgs", "finish_time"},
        "config": {"pid"},
        "sched": {"gen", "done", "block_start"},
    },
    Machine: {
        "parts": {"processors", "external", "internal"},
        "stats": {"stats"},
        "config": {
            "sim", "config", "costs", "net_config", "clusters",
            "_control_bytes", "_staged", "routes",
        },
        "off": {"faults", "transport"},
    },
    ProcessorState: {
        "state": {"handler_free_at", "stolen_cycles"},
        "stats": {"handler_cycles_total", "messages_handled"},
        "config": {"pid", "cluster"},
    },
    Wire: {"stats": {"queue_cycles"}, "config": {"wire_latency"}},
    Mesh2D: {
        "stats": {"queue_cycles"},
        "config": {"cluster_size", "wire_latency", "hop_latency", "side"},
    },
    FixedLatency: {"stats": {"queue_cycles"}, "config": {"delay"}},
    SharedBus: {
        "state": {"_free_at"},
        "stats": {"queue_cycles"},
        "config": {"delay", "bandwidth"},
    },
    SwitchedFabric: {
        "state": {"_free_at"},
        "stats": {"queue_cycles"},
        "config": {"delay", "bandwidth"},
    },
    TLB: {
        "state": {"_entries"},
        "stats": {"fills", "invalidations"},
        "config": {"pid"},
    },
    CacheSystem: {
        "state": {"_lines"},
        # an index of which lines ``_lines`` holds, page by page: derived
        # from the directory the snapshot digests
        "index": {"_pages"},
        "stats": {"_counts"},
        "config": {
            "config", "costs", "_cost_of", "_hw_ptrs", "hit_cost",
            "_lines_per_page",
        },
    },
    MGSLock: {
        "state": {
            "token_cluster", "token_in_transit", "holder", "_local_q",
            "_requested", "_home_pending", "_handoff_wanted",
            "_handoff_budget",
        },
        "stats": {"stats"},
        "config": {"machine", "config", "costs", "lock_id", "home_cluster"},
    },
    TreeBarrier: {
        "state": {"_combined", "_clusters"},
        "stats": {"episodes"},
        "config": {"machine", "config", "costs"},
    },
    MessageBus: {
        "state": {"open_txns"},
        # _next_txn: raw ids are renumbered away; replay carries it as a
        # statistic so replayed runs allocate the same ids
        "stats": {"flows", "latencies", "_next_txn"},
        "config": {
            "machine", "config", "sim", "cluster_size", "_handlers", "_taps",
            "_txn_taps",
        },
    },
    # Engines report through Protocol.phase_state().
    # _service/_release: the Local Client's fault and release bodies
    engine_class("mgs"): _engine(
        {"duqs", "stolen"},
        frozenset({"local", "remote", "server", "_service", "_release"}),
    ),
    engine_class("swdsm"): _engine({"dirty", "stolen"}),
    engine_class("sc_pages"): _engine({"pending", "streaks"}),
    engine_class("gcs"): _engine(
        {"dirty", "versions", "fversions", "_refreshing", "_drain"}
    ),
    DUQ: {
        "state": {"_pages"},
        "stats": {"enqueues", "early_removals"},
        "config": {"pid"},
    },
    PageFrame: {
        "state": {
            "state", "owner_pid", "data", "twin", "tlb_dir",
            "lock_held", "waiters", "queued_invals", "pinv_count",
            "inval_kind", "inval_txn", "aliases_home",
            "post_snapshot_writes",
        },
        # identity: the frame's key in its cluster's dict (digested)
        "config": {"vpn", "cluster"},
    },
    HomePage: {
        "state": {
            "home_pid", "data", "state", "read_dir", "write_dir",
            "count", "rl", "rd", "wr", "round_txn", "pending_wnotify",
            "pending_rels", "single_writer", "round_foreign_diff",
        },
        "config": {"vpn"},
    },
}

_FAR = 10**6  # a vpn / line / clock offset no live state uses


def _other(member):
    return next(m for m in type(member) if m is not member)


def _toggle(obj, attr):
    setattr(obj, attr, not getattr(obj, attr))


def _inc(obj, attr):
    setattr(obj, attr, getattr(obj, attr) + 1)


def _busy_txn(obj, attr):
    """Txn fields are digested as "a round is open" (``!= -1``)."""
    setattr(obj, attr, 7 if getattr(obj, attr) == -1 else -1)


def _array(obj, attr, rt):
    arr = getattr(obj, attr)
    if arr is None:
        setattr(obj, attr, np.zeros(rt.config.words_per_page))
    else:
        arr[0] += 1.0


def _new_frame(engine, rt):
    engine.frames[0][_FAR] = PageFrame(vpn=_FAR, cluster=0, owner_pid=0)


def _new_home(engine, rt):
    engine.homes[_FAR] = HomePage(
        vpn=_FAR, home_pid=0, data=np.zeros(rt.config.words_per_page)
    )


_FRAME_AND_HOMES = {"frames": _new_frame, "homes": _new_home}

#: component class -> state attribute -> ``perturb(obj, rt)``
PERTURB: dict[type, dict] = {
    ThreadContext: {
        "time": lambda t, rt: _inc(t, "time"),
        "last_yield": lambda t, rt: setattr(t, "last_yield", t.last_yield - 1),
    },
    ProcessorState: {
        # clamped at the base: move it well past every thread clock
        "handler_free_at": lambda p, rt: setattr(
            p, "handler_free_at", max(t.time for t in rt.threads) + _FAR
        ),
        "stolen_cycles": lambda p, rt: _inc(p, "stolen_cycles"),
    },
    SharedBus: {
        "_free_at": lambda m, rt: setattr(
            m, "_free_at", max(t.time for t in rt.threads) + _FAR
        ),
    },
    SwitchedFabric: {
        "_free_at": lambda m, rt: m._free_at.__setitem__(
            (0, 1), max(t.time for t in rt.threads) + _FAR
        ),
    },
    TLB: {"_entries": lambda tlb, rt: tlb._entries.__setitem__(_FAR, MapMode.READ)},
    # a clean line shared by processor 1: [owner, sharer mask]
    CacheSystem: {
        "_lines": lambda c, rt: c._lines[0].__setitem__(_FAR, [-1, 1 << 1])
    },
    MGSLock: {
        "token_cluster": lambda lk, rt: setattr(
            lk, "token_cluster", (lk.token_cluster + 1) % rt.config.num_clusters
        ),
        "token_in_transit": lambda lk, rt: _toggle(lk, "token_in_transit"),
        "holder": lambda lk, rt: setattr(
            lk, "holder", 3 if lk.holder != 3 else 2
        ),
        "_local_q": lambda lk, rt: lk._local_q[0].append(
            _Waiter(pid=1, on_done=None, local_at_enqueue=True)
        ),
        "_requested": lambda lk, rt: lk._requested.__setitem__(
            0, not lk._requested[0]
        ),
        "_home_pending": lambda lk, rt: lk._home_pending.append(1),
        "_handoff_wanted": lambda lk, rt: _toggle(lk, "_handoff_wanted"),
        "_handoff_budget": lambda lk, rt: _inc(lk, "_handoff_budget"),
    },
    TreeBarrier: {
        "_combined": lambda b, rt: _inc(b, "_combined"),
        "_clusters": lambda b, rt: _inc(b._clusters[0], "arrived"),
    },
    MessageBus: {"open_txns": lambda bus, rt: bus.begin("fault", 1, _FAR)},
    engine_class("mgs"): {
        **_FRAME_AND_HOMES,
        "duqs": lambda e, rt: e.duqs[0].add(_FAR),
        "stolen": lambda e, rt: e.stolen[0].add(_FAR),
    },
    engine_class("swdsm"): {
        **_FRAME_AND_HOMES,
        "dirty": lambda e, rt: e.dirty[0].__setitem__(_FAR, None),
        "stolen": lambda e, rt: e.stolen[0].add(_FAR),
    },
    engine_class("sc_pages"): {
        **_FRAME_AND_HOMES,
        "pending": lambda e, rt: e.pending.__setitem__(_FAR, None),
        "streaks": lambda e, rt: e.streaks.__setitem__(_FAR, (0, 1)),
    },
    engine_class("gcs"): {
        **_FRAME_AND_HOMES,
        "dirty": lambda e, rt: e.dirty[0].__setitem__(_FAR, None),
        "versions": lambda e, rt: e.versions.__setitem__(_FAR, 1),
        "fversions": lambda e, rt: e.fversions[0].__setitem__(_FAR, 1),
        "_refreshing": lambda e, rt: e._refreshing.__setitem__((0, _FAR), []),
        "_drain": lambda e, rt: e._drain.__setitem__(_FAR, (None, 0)),
    },
    DUQ: {"_pages": lambda d, rt: d.add(_FAR)},
    PageFrame: {
        "state": lambda f, rt: setattr(f, "state", _other(f.state)),
        "owner_pid": lambda f, rt: _inc(f, "owner_pid"),
        "data": lambda f, rt: _array(f, "data", rt),
        "twin": lambda f, rt: _array(f, "twin", rt),
        "tlb_dir": lambda f, rt: f.tlb_dir.add(_FAR),
        "lock_held": lambda f, rt: _toggle(f, "lock_held"),
        "waiters": lambda f, rt: f.waiters.append(Waiter(0, False, None)),
        "queued_invals": lambda f, rt: f.queued_invals.append(None),
        "pinv_count": lambda f, rt: _inc(f, "pinv_count"),
        "inval_kind": lambda f, rt: setattr(
            f, "inval_kind", "x" if f.inval_kind != "x" else None
        ),
        "inval_txn": lambda f, rt: _busy_txn(f, "inval_txn"),
        "aliases_home": lambda f, rt: _toggle(f, "aliases_home"),
        "post_snapshot_writes": lambda f, rt: _toggle(f, "post_snapshot_writes"),
    },
    HomePage: {
        "home_pid": lambda h, rt: _inc(h, "home_pid"),
        "data": lambda h, rt: _array(h, "data", rt),
        "state": lambda h, rt: setattr(h, "state", _other(h.state)),
        "read_dir": lambda h, rt: h.read_dir.add(_FAR),
        "write_dir": lambda h, rt: h.write_dir.add(_FAR),
        "count": lambda h, rt: _inc(h, "count"),
        "rl": lambda h, rt: h.rl.append(None),
        "rd": lambda h, rt: h.rd.append(None),
        "wr": lambda h, rt: h.wr.append(None),
        "round_txn": lambda h, rt: _busy_txn(h, "round_txn"),
        "pending_wnotify": lambda h, rt: h.pending_wnotify.append(1),
        "pending_rels": lambda h, rt: h.pending_rels.append(None),
        "single_writer": lambda h, rt: setattr(
            h, "single_writer", 0 if h.single_writer is None else None
        ),
        "round_foreign_diff": lambda h, rt: _toggle(h, "round_foreign_diff"),
    },
}


# ---------------------------------------------------------------------------
# a live mid-run machine
# ---------------------------------------------------------------------------


def _build(engine: str, network: str, internal: str = "wire") -> Runtime:
    config = MachineConfig(
        total_processors=4,
        cluster_size=2,
        protocol=engine,
        network=NetworkConfig(external=network, internal=internal),
    )
    rt = Runtime(config)
    words = config.words_per_page
    arr = rt.array("data", 4 * words)
    lk = rt.create_lock()

    def worker(env):
        for k in range(3):
            page = (env.pid + k) % 4
            yield from env.write(arr.addr(page * words + env.pid), 1.0 + k)
            yield from env.read(arr.addr(((page + 1) % 4) * words))
            yield from env.lock(lk)
            yield from env.write(arr.addr(env.pid), float(k))
            yield from env.unlock(lk)
            yield from env.barrier()

    rt.spawn_all(worker)
    return rt


def _live(engine: str, network: str = "fixed", internal: str = "wire") -> Runtime:
    """The runtime stopped halfway through its events, mid-protocol."""
    total = _build(engine, network, internal)
    total.run()
    rt = _build(engine, network, internal)
    with pytest.raises(RuntimeError, match="max_events"):
        rt.run(max_events=total.sim.events_processed // 2)
    return rt


def _components(rt: Runtime) -> list:
    """Every inventoried component instance of ``rt``, one per class."""
    protocol = rt.protocol
    objs = [
        rt,
        *rt.threads,
        rt.machine,
        *rt.machine.processors,
        rt.machine.external,
        rt.machine.internal,
        *protocol.tlbs,
        rt.cache,
        *rt.locks,
        rt.barrier_obj,
        protocol.bus,
        protocol,
        *getattr(protocol, "duqs", ()),
        *(f for frames in protocol.frames for f in frames.values()),
        *protocol.homes.values(),
    ]
    first: dict[type, object] = {}
    for obj in objs:
        first.setdefault(type(obj), obj)
    return list(first.values())


def _digest(rt: Runtime) -> str:
    return PhaseRecorder(rt).state_digest("phase")[0]


# ---------------------------------------------------------------------------
# the inventory
# ---------------------------------------------------------------------------


def _attributes(obj) -> set[str]:
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return names - {"__dict__", "__weakref__"}


def test_inventory_classifies_every_attribute():
    seen: set[type] = set()
    runtimes = [_live(engine) for engine in ENGINES]
    runtimes += [_live("mgs", "bus", "mesh"), _live("mgs", "fabric")]
    for rt in runtimes:
        for obj in _components(rt):
            cls = type(obj)
            assert cls in INVENTORY, f"{cls.__name__} is not inventoried"
            seen.add(cls)
            declared = INVENTORY[cls]
            names = [n for group in declared.values() for n in group]
            assert len(names) == len(set(names)), (
                f"{cls.__name__}: an attribute is declared twice"
            )
            unclassified = _attributes(obj) - set(names)
            assert not unclassified, (
                f"{cls.__name__} gained {sorted(unclassified)}: declare each "
                f"as state (and report it from state()) or as stats/config"
            )
            missing = set(names) - _attributes(obj)
            assert not missing, f"{cls.__name__} lost {sorted(missing)}"
    assert seen == set(INVENTORY), "an inventoried component never appeared"


def test_every_state_attribute_has_a_perturbation():
    for cls, declared in INVENTORY.items():
        assert set(PERTURB.get(cls, {})) == declared.get("state", set()), (
            cls.__name__
        )


# ---------------------------------------------------------------------------
# digest sensitivity
# ---------------------------------------------------------------------------


def _assert_sensitive(engine: str, network: str, classes) -> None:
    base = _digest(_live(engine, network))
    for cls in classes:
        for attr, perturb in PERTURB[cls].items():
            rt = _live(engine, network)
            obj = next(o for o in _components(rt) if type(o) is cls)
            perturb(obj, rt)
            assert _digest(rt) != base, (
                f"{engine}: perturbing {cls.__name__}.{attr} left the "
                f"snapshot digest unchanged"
            )


@pytest.mark.parametrize("engine", ENGINES)
def test_digest_sensitive_to_every_state_attribute(engine):
    live = {type(o) for o in _components(_live(engine))}
    classes = [cls for cls in PERTURB if cls in live]
    # the machine must be far enough along for every component to exist
    assert {PageFrame, HomePage, MGSLock, engine_class(engine)} <= set(classes)
    _assert_sensitive(engine, "fixed", classes)


@pytest.mark.parametrize(
    "network, model", [("bus", SharedBus), ("fabric", SwitchedFabric)]
)
def test_digest_sensitive_to_interconnect_reservations(network, model):
    _assert_sensitive("mgs", network, [model])


def test_snapshot_is_deterministic_and_base_relative():
    """Equal machines give equal snapshots, and translating every clock —
    the threads', and through ``Machine.set_state`` the handlers' and
    links' — is invisible, which is what replay's apply relies on."""
    a, b = _live("mgs", "fabric"), _live("mgs", "fabric")
    assert a.snapshot() == b.snapshot()
    base = min(t.time for t in b.threads)
    machine = b.machine.state(base)
    for t in b.threads:
        t.time += 1000
        t.last_yield += 1000
    b.machine.set_state(base + 1000, machine)
    assert a.snapshot() == b.snapshot()
