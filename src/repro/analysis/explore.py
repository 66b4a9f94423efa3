"""Exhaustive protocol state-space exploration.

Two complementary drivers over the same harness, both engine-agnostic:

* :func:`explore` — a **bounded model checker**.  It enumerates *every*
  interleaving of a small per-thread program (reads, writes, a lock,
  a barrier) against one coherence engine, at simulator-event
  granularity: at each state the nondeterministic choices are "thread i
  issues its next operation now" and "deliver the next queued event".
  States are canonicalized (``Runtime.snapshot`` plus the pending event
  queue and the happens-before bookkeeping) and deduped, so the
  search walks the state *graph*, breadth-first — the first violation
  found is a minimum-length schedule.  Every reachable state is checked
  against the engine's :class:`~repro.core.engine.ArcRules` (including
  the queue-aware :meth:`~repro.core.engine.ArcRules.check_state` rules
  only the explorer can evaluate), the structural page checks, and
  release-consistency read legality (:func:`legal_values` over the
  happens-before clocks of :mod:`repro.analysis.races`).

* :func:`walk_machine` — a **hypothesis stateful machine** driving much
  longer random walks (optionally through the lossy ``repro.net``
  fault-injection transport) beyond the exhaustive bound, with
  hypothesis shrinking any failure to a minimal rule sequence and the
  transaction-grouped tracer rendering the counterexample.

The seeded corruptions of :mod:`repro.analysis.mutations` are the
yardstick: :func:`mutation_benchmark` explores every one on the shape
its :class:`~repro.analysis.mutations.MutationSpec` names and must
catch it.  The reports' summaries are pinned in
``results/mutation_catch.txt``, so each bug's detection cost (ops,
events, schedule length, states) is checked across commits.

Determinism: everything here replays deterministic simulations from
explicit choice sequences — no wall clock, no unseeded randomness — so
the same (engine, program, mutation) triple always yields the same
counterexample.  ``tests/test_explore.py`` golden-pins two minimized
traces under ``results/``, and ``tests/test_analysis_mutations.py`` the
mutation catch table.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.analysis.mutations import MUTATIONS, Op, apply_mutation
from repro.analysis.races import HappensBefore
from repro.core.engine import engine_names
from repro.core.messages import ProtocolMessage
from repro.core.page import HomePage, PageFrame
from repro.params import WORD_BYTES, MachineConfig, NetworkConfig
from repro.runtime.options import RunOptions
from repro.runtime.runner import Runtime
from repro.sim.snapshot import array_digest, digest
from repro.trace import ProtocolTracer

__all__ = [
    "Op",
    "ExploreConfig",
    "ExploreReport",
    "explore",
    "default_programs",
    "counterexample_trace",
    "inflight_messages",
    "mutation_config",
    "explore_mutation",
    "mutation_benchmark",
    "walk_machine",
    "run_walk",
    "main",
]

#: every harness runs with the default settings: a replay resolves no
#: environment, and the harness, not ``Env``, issues each access
_OPTIONS = RunOptions()


@dataclass(frozen=True)
class ExploreConfig:
    """Bounds and machine shape for one exhaustive run."""

    engine: str = "mgs"
    threads: int = 2
    pages: int = 1
    nclusters: int = 2
    cluster_size: int = 1
    delay: int = 700
    #: frontier budget; exceeding it marks the report truncated
    max_states: int = 250_000
    #: schedule-length budget (choices, not events)
    max_depth: int = 2_000
    #: consecutive re-faults of one access before declaring livelock
    max_refaults: int = 8

    @property
    def total_processors(self) -> int:
        return self.nclusters * self.cluster_size


def default_programs(cfg: ExploreConfig) -> tuple[tuple[Op, ...], ...]:
    """The canonical per-thread programs for an exhaustive run.

    Covers the whole vocabulary: unsynchronized reads/writes (races are
    *legal* under RC — the checker verifies the value read is one an RC
    execution may return), a lock-protected critical section whose
    release/acquire edges force visibility, a barrier, and a post-
    barrier access that must observe everything before it.  Thread 0
    writes, thread 1 reads the same words, extra threads alternate.
    """
    progs: list[tuple[Op, ...]] = []
    last = cfg.pages - 1
    for i in range(cfg.threads):
        if i % 2 == 0:
            progs.append(
                (
                    ("write", 0, 0),
                    ("lock",),
                    ("write", last, 1),
                    ("unlock",),
                    ("barrier",),
                    ("read", last, 1),
                )
            )
        else:
            progs.append(
                (
                    ("read", last, 1),
                    ("lock",),
                    ("read", 0, 0),
                    ("unlock",),
                    ("barrier",),
                    ("write", 0, 0),
                )
            )
    return tuple(progs)


# ---------------------------------------------------------------------------
# In-flight message extraction
# ---------------------------------------------------------------------------


def _find_messages(obj, out, depth=0) -> None:
    if isinstance(obj, ProtocolMessage):
        out.append(obj)
        return
    if depth >= 3:
        return
    if isinstance(obj, tuple):
        for x in obj:
            _find_messages(x, out, depth + 1)


def inflight_messages(rt: Runtime) -> tuple[ProtocolMessage, ...]:
    """Undelivered protocol messages, in delivery (time, seq) order.

    Scans the simulator's event queue for scheduled deliveries —
    including messages still inside the reliable transport's
    retransmission machinery, whose closures carry the payload as an
    argument.  Only valid between events (the explorer single-steps, so
    the queue is always intact when this runs).
    """
    out: list[ProtocolMessage] = []
    for _time, _fn, args in rt.sim.pending_events():
        _find_messages(args, out)
    return tuple(out)


# ---------------------------------------------------------------------------
# State canonicalization
# ---------------------------------------------------------------------------


class _Canon:
    """Canonical, time-shifted, txn-renumbered encoding of live objects.

    Transaction ids are allocated by a global monotone counter, so two
    behaviorally identical states reached through different schedules
    carry different raw ids; renumbering by first appearance (walking
    open transactions, then queued events in delivery order) makes them
    collide.  Closures are encoded by qualname plus their captured cells
    (``co_freevars`` gives the names, so a cell literally named ``txn``
    is renumbered too).
    """

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        self._txn_map: dict[int, int] = {}

    def txn(self, v):
        if not isinstance(v, int) or v < 0:
            return v
        m = self._txn_map
        if v not in m:
            m[v] = len(m)
        return ("txn", m[v])

    def obj(self, o, depth=0, seen=()):
        if o is None or isinstance(o, (bool, int, float, str, bytes)):
            return o
        if isinstance(o, enum.Enum):
            return ("enum", type(o).__name__, o.value)
        if isinstance(o, np.ndarray):
            return ("nd", array_digest(o))
        if depth > 8:
            return ("deep", type(o).__name__)
        if id(o) in seen:
            return ("cycle", type(o).__name__)
        seen = seen + (id(o),)
        if isinstance(o, ProtocolMessage):
            vals = tuple(
                (
                    f.name,
                    self.txn(getattr(o, f.name))
                    if f.name == "txn"
                    else self.obj(getattr(o, f.name), depth + 1, seen),
                )
                for f in dataclasses.fields(o)
            )
            return ("msg", o.label, vals)
        if isinstance(o, PageFrame):
            return ("frame", o.cluster, o.vpn)
        if isinstance(o, HomePage):
            for vpn, h in self.protocol.homes.items():
                if h is o:
                    return ("homepage", vpn)
            return ("homepage", -1)
        if isinstance(o, (list, tuple)):
            return (
                type(o).__name__,
                tuple(self.obj(x, depth + 1, seen) for x in o),
            )
        if isinstance(o, dict):
            return (
                "dict",
                tuple(
                    (self.obj(k, depth + 1, seen), self.obj(v, depth + 1, seen))
                    for k, v in o.items()
                ),
            )
        if isinstance(o, (set, frozenset)):
            return (
                "set",
                tuple(
                    sorted(
                        repr(self.obj(x, depth + 1, seen)) for x in o
                    )
                ),
            )
        if callable(o):
            return self.fn(o, depth, seen)
        if dataclasses.is_dataclass(o):
            vals = tuple(
                (
                    f.name,
                    self.txn(getattr(o, f.name))
                    if f.name == "txn"
                    else self.obj(getattr(o, f.name), depth + 1, seen),
                )
                for f in dataclasses.fields(o)
            )
            return ("dc", type(o).__name__, vals)
        return ("obj", type(o).__name__)

    def fn(self, f, depth=0, seen=()):
        func = getattr(f, "__func__", f)
        out = ["fn", getattr(func, "__qualname__", type(f).__name__)]
        bound = getattr(f, "__self__", None)
        if bound is not None:
            if isinstance(bound, (PageFrame, HomePage)):
                out.append(self.obj(bound, depth + 1, seen))
            else:
                out.append(type(bound).__name__)
        code = getattr(func, "__code__", None)
        closure = getattr(func, "__closure__", None)
        if code is not None and closure:
            for name, cell in zip(code.co_freevars, closure):
                try:
                    val = cell.cell_contents
                except ValueError:  # pragma: no cover - empty cell
                    val = "<empty>"
                out.append(
                    (
                        name,
                        self.txn(val)
                        if name == "txn"
                        else self.obj(val, depth + 1, seen),
                    )
                )
        return tuple(out)


# ---------------------------------------------------------------------------
# The harness: one explored execution
# ---------------------------------------------------------------------------

_IDLE = "idle"
_DONE_STATUSES = (_IDLE, "lockwait", "barrier-wait")


def _leq(a, b) -> bool:
    """Clock ``a`` happens-before-or-equals clock ``b``."""
    return all(x <= y for x, y in zip(a, b))


def legal_values(writes, reader) -> set[float]:
    """The values release consistency lets a read with clock ``reader``
    return, given every ``(thread, value, clock)`` write to its word:
    any happens-before-maximal write ordered before the read, any write
    concurrent with it, or the initial 0.0 when no write is ordered
    before it.  Explored programs race on purpose, so this is the
    weakest sound contract — every engine promises at least this much,
    so a read outside it is a real protocol bug on any of them."""
    before = [w for w in writes if _leq(w[2], reader)]
    legal = {w[1] for w in writes if not _leq(w[2], reader)}
    for w in before:
        if not any(w2 is not w and _leq(w[2], w2[2]) for w2 in before):
            legal.add(w[1])
    if not before:
        legal.add(0.0)
    return legal


class _Thread:
    __slots__ = ("pid", "program", "pc", "status", "refaults")

    def __init__(self, pid: int, program: tuple[Op, ...]) -> None:
        self.pid = pid
        self.program = program
        self.pc = 0
        self.status = _IDLE
        self.refaults = 0


class _Harness:
    """One execution being explored: a Runtime plus logical threads.

    The harness plays the role of ``repro.runtime.env`` and the sync
    objects, but under *explicit* scheduling: operations are issued only
    when the search says so, and simulator events are delivered one at a
    time (``sim.step``), so every interleaving is reachable.  The access
    recipe mirrors the Env slow path exactly: TLB probe, fault until
    mapped, hardware line-directory access, then the word read/write.
    """

    def __init__(
        self,
        cfg: ExploreConfig,
        programs: tuple[tuple[Op, ...], ...],
        mutation: str | None = None,
        trace: bool = False,
    ) -> None:
        if len(programs) != cfg.threads:
            raise ValueError(f"{cfg.threads} threads, {len(programs)} programs")
        self.cfg = cfg
        self.config = MachineConfig(
            total_processors=cfg.total_processors,
            cluster_size=cfg.cluster_size,
            inter_ssmp_delay=cfg.delay,
            protocol=cfg.engine,
        )
        rt = Runtime(self.config, analysis="invariants", options=_OPTIONS)
        self.rt = rt
        arr = rt.array(
            "explore", cfg.pages * self.config.words_per_page, home=0
        )
        base_vpn = arr.base // self.config.page_size
        self.vpns = [base_vpn + i for i in range(cfg.pages)]
        self.tracer = ProtocolTracer(rt, pages=self.vpns) if trace else None
        if mutation is not None:
            apply_mutation(rt, mutation)
        self.hb = HappensBefore(cfg.threads)
        #: (vpn, word) -> every write so far: (thread, value, clock)
        self.history: dict[tuple[int, int], list[tuple]] = {}
        self.threads = [
            _Thread(pid=i, program=programs[i]) for i in range(cfg.threads)
        ]
        self.lock_holder: int | None = None
        self.lock_queue: list[int] = []
        self.barrier_arrived: list[int] = []
        self.events = 0
        self.ops = 0
        self.log: list[str] = []

    # -- choices -------------------------------------------------------

    def choices(self) -> list[tuple]:
        out: list[tuple] = []
        for i, t in enumerate(self.threads):
            if t.status == _IDLE and t.pc < len(t.program):
                out.append(("op", i))
        if self.rt.sim.pending:
            out.append(("step",))
        return out

    def apply(self, choice: tuple, check: bool = True) -> None:
        if choice[0] == "op":
            self._issue(choice[1])
        else:
            self.rt.sim.step()
            self.events += 1
        # Harness threads are always blocked from the machine's point of
        # view, so handler cycles never delay them: drain the stolen
        # cycles as Runtime._discard_stolen does for a blocked thread.
        machine = self.rt.machine
        for pid in range(len(machine.processors)):
            machine.take_stolen(pid)
        if check:
            self.run_checks()

    def done(self) -> bool:
        return all(
            t.pc == len(t.program) and t.status == _IDLE for t in self.threads
        )

    # -- operation issue ----------------------------------------------

    def _issue(self, i: int) -> None:
        t = self.threads[i]
        op = t.program[t.pc]
        self.ops += 1
        self.log.append(f"t{i}(p{t.pid}): {self._op_str(op)}")
        kind = op[0]
        if kind in ("read", "write"):
            self._start_access(i, op)
        elif kind == "lock":
            self._start_lock(i)
        elif kind == "unlock":
            self._start_unlock(i)
        elif kind == "barrier":
            self._start_barrier(i)
        else:
            raise ValueError(f"unknown op {op!r}")

    def _op_str(self, op: Op) -> str:
        if op[0] in ("read", "write"):
            return f"{op[0]} page{op[1]}[{op[2]}]"
        return op[0]

    def _mapped(self, pid: int, vpn: int, write: bool) -> bool:
        tlb = self.rt.protocol.tlbs[pid]
        return tlb.has_write(vpn) if write else tlb.lookup(vpn) is not None

    def _start_access(self, i: int, op: Op) -> None:
        t = self.threads[i]
        vpn = self.vpns[op[1]]
        write = op[0] == "write"
        if self._mapped(t.pid, vpn, write):
            self._finish_access(i, op)
            return
        t.status = "fault"
        t.refaults = 0
        self.rt.protocol.fault(
            t.pid, vpn, write, lambda: self._fault_done(i, op)
        )

    def _fault_done(self, i: int, op: Op) -> None:
        t = self.threads[i]
        vpn = self.vpns[op[1]]
        write = op[0] == "write"
        if self._mapped(t.pid, vpn, write):
            t.status = _IDLE
            self._finish_access(i, op)
            return
        t.refaults += 1
        if t.refaults > self.cfg.max_refaults:
            self.rt.sanitizer.fail(
                "explore-livelock",
                f"thread {i} (pid {t.pid}) re-faulted page {op[1]} "
                f"{t.refaults} times without gaining a "
                f"{'write' if write else 'read'} mapping",
                vpn=vpn,
            )
        self.rt.protocol.fault(
            t.pid, vpn, write, lambda: self._fault_done(i, op)
        )

    def _finish_access(self, i: int, op: Op) -> None:
        t = self.threads[i]
        vpn = self.vpns[op[1]]
        word = op[2]
        write = op[0] == "write"
        frame = self.rt.protocol.frames_view(t.pid)[vpn]
        addr = vpn * self.config.page_size + word * WORD_BYTES
        self.rt.cache.access(
            self.config.cluster_of(t.pid),
            t.pid,
            addr // self.config.line_size,
            write,
            frame.owner_pid,
        )
        if write:
            # Deterministic per (thread, program index) so identical
            # logical states reached through different schedules carry
            # identical page bytes and merge in the frontier.
            value = float((i + 1) * 100 + t.pc)
            frame.data[word] = value
            self.hb.tick(i)
            self.history.setdefault((vpn, word), []).append(
                (i, value, tuple(self.hb.clocks[i]))
            )
        else:
            value = float(frame.data[word])
            legal = legal_values(
                self.history.get((vpn, word), ()), self.hb.clocks[i]
            )
            if value not in legal:
                self.rt.sanitizer.fail(
                    "rc-read",
                    f"thread {i} (pid {t.pid}) read {value} from "
                    f"page{op[1]}[{word}]; release consistency allows "
                    f"{sorted(legal)}",
                    vpn=vpn,
                )
            self.hb.tick(i)
        t.pc += 1

    # -- lock ----------------------------------------------------------

    def _start_lock(self, i: int) -> None:
        if self.lock_holder is None:
            self.lock_holder = i
            self._grant_lock(i)
        else:
            self.threads[i].status = "lockwait"
            self.lock_queue.append(i)

    def _grant_lock(self, i: int) -> None:
        t = self.threads[i]
        if self.rt.protocol.needs_acquire:
            t.status = "acquiring"
            self.rt.protocol.acquire(t.pid, lambda: self._lock_granted(i))
        else:
            self._lock_granted(i)

    def _lock_granted(self, i: int) -> None:
        t = self.threads[i]
        self.hb.acquire(i, "lock")
        t.status = _IDLE
        t.pc += 1

    def _start_unlock(self, i: int) -> None:
        if self.lock_holder != i:
            raise ValueError(f"thread {i} unlocks a lock it does not hold")
        t = self.threads[i]
        t.status = "releasing"
        self.rt.protocol.release(t.pid, lambda: self._unlock_done(i))

    def _unlock_done(self, i: int) -> None:
        t = self.threads[i]
        self.hb.release(i, "lock")
        t.status = _IDLE
        t.pc += 1
        self.lock_holder = None
        if self.lock_queue:
            nxt = self.lock_queue.pop(0)
            self.lock_holder = nxt
            self._grant_lock(nxt)

    # -- barrier --------------------------------------------------------

    def _start_barrier(self, i: int) -> None:
        t = self.threads[i]
        t.status = "barrier-rel"
        self.barrier_arrived.append(i)
        self.hb.barrier_arrive(i)
        self.rt.protocol.release(t.pid, lambda: self._barrier_released(i))

    def _barrier_released(self, i: int) -> None:
        self.threads[i].status = "barrier-wait"
        if len(self.barrier_arrived) == len(self.threads) and all(
            self.threads[j].status == "barrier-wait"
            for j in self.barrier_arrived
        ):
            arrived = self.barrier_arrived
            self.barrier_arrived = []
            for j in sorted(arrived):
                self._barrier_depart(j)

    def _barrier_depart(self, j: int) -> None:
        self.hb.barrier_depart(j)
        t = self.threads[j]
        if self.rt.protocol.needs_acquire:
            t.status = "acquiring"
            self.rt.protocol.acquire(t.pid, lambda: self._barrier_out(j))
        else:
            self._barrier_out(j)

    def _barrier_out(self, j: int) -> None:
        t = self.threads[j]
        t.status = _IDLE
        t.pc += 1

    # -- checks ---------------------------------------------------------

    def run_checks(self) -> None:
        san = self.rt.sanitizer
        san.check_state(inflight_messages(self.rt))
        for vpn in self.vpns:
            san.rules.check_page(vpn)
        if self.rt.sim.pending:
            return
        # Drained: every protocol-level continuation has run.  A thread
        # still mid-operation will now wait forever — that is a hang.
        stuck = [
            i
            for i, t in enumerate(self.threads)
            if t.status not in _DONE_STATUSES
        ]
        if stuck:
            san.fail(
                "explore-hang",
                f"event queue empty but threads {stuck} are stuck "
                f"mid-operation "
                f"({[self.threads[i].status for i in stuck]})",
            )
        if not self.choices():
            waiting = [
                i
                for i, t in enumerate(self.threads)
                if t.pc < len(t.program) or t.status != _IDLE
            ]
            if waiting:
                san.fail(
                    "explore-deadlock",
                    f"no enabled choice but threads {waiting} have not "
                    f"finished their programs",
                )
        if self.done():
            san.check_quiescent()
            self.rt.protocol.check_invariants()

    # -- canonical state -------------------------------------------------

    def state_key(self) -> str:
        """Harness state, the machine snapshot at ``now``, and the
        pending events with txn ids renumbered by first appearance
        (open transactions first, in txn order)."""
        rt = self.rt
        now = rt.sim.now
        canon = _Canon(rt.protocol)
        for txn in rt.protocol.bus.open_txns:
            canon.txn(txn)
        events = tuple(
            (time - now, canon.obj(fn), canon.obj(args))
            for time, fn, args in rt.sim.pending_events()
        )
        harness = (
            tuple((t.pc, t.status, t.refaults) for t in self.threads),
            self.lock_holder,
            tuple(self.lock_queue),
            tuple(self.barrier_arrived),
            self.hb.state(),
            tuple(sorted((loc, tuple(ws)) for loc, ws in self.history.items())),
        )
        return digest((harness, rt.snapshot(now), events))


# ---------------------------------------------------------------------------
# The bounded model checker
# ---------------------------------------------------------------------------


@dataclass
class ExploreReport:
    """Outcome of one bounded exploration (picklable)."""

    engine: str
    mutation: str | None
    states: int
    edges: int
    #: rule name of the violation, or None when the space is clean
    rule: str | None = None
    detail: str | None = None
    #: minimal failing schedule (only set on violation)
    schedule: tuple = ()
    #: simulator events executed up to and including the violation
    events: int = 0
    #: program operations issued up to the violation
    ops: int = 0
    truncated: bool = False

    @property
    def caught(self) -> bool:
        return self.rule is not None

    def summary(self) -> str:
        name = f"{self.engine}" + (
            f"+{self.mutation}" if self.mutation else ""
        )
        if self.rule is None:
            extra = " (truncated)" if self.truncated else ""
            return (
                f"{name}: clean — {self.states} states, "
                f"{self.edges} transitions{extra}"
            )
        return (
            f"{name}: VIOLATION {self.rule} after {self.ops} ops / "
            f"{self.events} events (schedule length {len(self.schedule)}, "
            f"{self.states} states explored) — {self.detail}"
        )


def _replay(cfg, programs, mutation, schedule) -> _Harness:
    h = _Harness(cfg, programs, mutation)
    for c in schedule:
        h.apply(c, check=False)
    return h


def explore(
    cfg: ExploreConfig,
    programs: tuple[tuple[Op, ...], ...] | None = None,
    mutation: str | None = None,
) -> ExploreReport:
    """Breadth-first search of the reachable state graph.

    Closures throughout the engines make protocol state impossible to
    deep-copy, so the search is *stateless* (CHESS-style): a state is a
    choice schedule, replayed from scratch on a fresh ``Runtime`` for
    each of its transitions — sound because the simulator is fully
    deterministic.  The frontier carries each state's enabled choices,
    taken when the state is first reached, so expanding a state costs
    one replay per transition and none more.  BFS order guarantees the
    first violation found has a minimum-length schedule.
    """
    if programs is None:
        programs = default_programs(cfg)
    root = _Harness(cfg, programs, mutation)
    try:
        root.run_checks()
    except AssertionError as e:
        return _violation_report(cfg, mutation, (), root, e, 1, 0)
    seen: set[str] = {root.state_key()}
    #: (schedule, the choices enabled at its end)
    frontier: deque[tuple[tuple, list[tuple]]] = deque([((), root.choices())])
    edges = 0
    truncated = False
    while frontier:
        sched, choices = frontier.popleft()
        for choice in choices:
            edges += 1
            h = _replay(cfg, programs, mutation, sched)
            try:
                h.apply(choice)
            except AssertionError as e:
                return _violation_report(
                    cfg, mutation, sched + (choice,), h, e, len(seen), edges
                )
            key = h.state_key()
            if key in seen:
                continue
            if len(seen) >= cfg.max_states:
                truncated = True
                continue
            seen.add(key)
            if len(sched) + 1 < cfg.max_depth:
                frontier.append((sched + (choice,), h.choices()))
            else:
                truncated = True
    return ExploreReport(
        engine=cfg.engine,
        mutation=mutation,
        states=len(seen),
        edges=edges,
        truncated=truncated,
    )


def _violation_report(
    cfg, mutation, schedule, h, exc, states, edges
) -> ExploreReport:
    rule = getattr(exc, "rule", "assert")
    detail = getattr(exc, "detail", str(exc))
    return ExploreReport(
        engine=cfg.engine,
        mutation=mutation,
        states=states,
        edges=edges,
        rule=rule,
        detail=detail,
        schedule=tuple(schedule),
        events=h.events,
        ops=h.ops,
    )


def counterexample_trace(
    cfg: ExploreConfig,
    report: ExploreReport,
    programs: tuple[tuple[Op, ...], ...] | None = None,
) -> str:
    """Re-run a failing schedule with the tracer and render it.

    The rendering is fully deterministic: the schedule listing (which
    thread issued which operation between which event deliveries), the
    violation, and the transaction-grouped protocol trace.
    """
    if not report.caught:
        raise ValueError("report carries no violation")
    if programs is None:
        programs = default_programs(cfg)
    h = _Harness(cfg, programs, report.mutation, trace=True)
    failure = None
    for choice in report.schedule:
        try:
            h.apply(choice)
        except AssertionError as e:
            failure = e
            break
    lines = [
        f"engine: {cfg.engine}",
        f"mutation: {report.mutation or '-'}",
        f"violation: {report.rule} — {report.detail}",
        f"cost: {h.ops} ops, {h.events} simulator events, "
        f"schedule length {len(report.schedule)}",
        "",
        "schedule (issued operations, in order):",
    ]
    lines += [f"  {entry}" for entry in h.log]
    lines.append("")
    lines.append(f"failure: {failure}")
    lines.append("")
    lines.append(h.tracer.render_transactions())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The mutation catch table
# ---------------------------------------------------------------------------


def mutation_config(name: str) -> ExploreConfig:
    """The exploration bounds for one seeded mutation, built from the
    shape its :class:`~repro.analysis.mutations.MutationSpec` names."""
    spec = MUTATIONS[name]
    return ExploreConfig(
        engine=spec.engine,
        threads=len(spec.programs),
        nclusters=spec.nclusters,
        cluster_size=spec.cluster_size,
    )


def explore_mutation(name: str) -> ExploreReport:
    """Explore one seeded mutation on its own shape."""
    return explore(mutation_config(name), MUTATIONS[name].programs, name)


def mutation_benchmark(names=None, jobs: int | None = None) -> list[ExploreReport]:
    """Explore every named seeded mutation (default: all, sorted).

    Each report must be caught and not truncated; ``repro analyze
    benchmark`` prints their summaries, which ``results/mutation_catch.txt``
    pins.  Farms mutations to the persistent worker pool of
    :mod:`repro.bench.parallel`.
    """
    from repro.bench.parallel import parallel_map

    if names is None:
        names = sorted(MUTATIONS)
    missing = [n for n in names if n not in MUTATIONS]
    if missing:
        raise ValueError(f"unknown mutations: {missing}")
    return parallel_map(explore_mutation, [(n,) for n in names], jobs=jobs)


# ---------------------------------------------------------------------------
# Hypothesis stateful machine: long random walks beyond the bound
# ---------------------------------------------------------------------------

#: last rendered counterexample trace (module-level so the minimal
#: shrunk re-execution, which hypothesis runs last, leaves its trace
#: here for the caller)
_LAST_WALK_TRACE: dict[str, str] = {}


def walk_machine(
    engine: str = "mgs",
    mutation: str | None = None,
    faulty_net: bool = False,
    nclusters: int = 2,
    cluster_size: int = 2,
    npages: int = 2,
):
    """Build a hypothesis ``RuleBasedStateMachine`` class for one engine.

    Rules issue protocol operations (faults, releases, acquires for
    engines that need them) and pump bounded slices of the event queue,
    so operations overlap arbitrarily; an invariant sweeps the page and
    queue-aware checks after every rule.  With ``faulty_net`` the
    external interconnect drops, duplicates, and delays datagrams
    (seeded, via ``repro.net.faults``) underneath the reliable
    transport, so retransmission schedules are explored too.  Teardown
    drains and runs the full quiescence sweep.  On failure the
    transaction-grouped trace of the (shrunk) minimal walk is stashed
    for :func:`run_walk`.
    """
    from hypothesis import strategies as st
    from hypothesis.stateful import (
        RuleBasedStateMachine,
        invariant,
        rule,
    )

    total = nclusters * cluster_size
    network = (
        NetworkConfig(
            drop_rate=0.05, dup_rate=0.05, delay_rate=0.05, reliable=True
        )
        if faulty_net
        else NetworkConfig()
    )
    config = MachineConfig(
        total_processors=total,
        cluster_size=cluster_size,
        inter_ssmp_delay=700,
        network=network,
        protocol=engine,
    )

    class ProtocolWalk(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.rt = Runtime(config, analysis="invariants")
            arr = self.rt.array(
                "walk", npages * config.words_per_page, home=0
            )
            self.base_vpn = arr.base // config.page_size
            self.vpns = [self.base_vpn + i for i in range(npages)]
            self.tracer = ProtocolTracer(self.rt, pages=self.vpns)
            if mutation is not None:
                apply_mutation(self.rt, mutation)
            self.busy: set[int] = set()
            self.completed = 0
            self.expected = 0

        def _op_done(self, pid: int) -> None:
            self.completed += 1
            self.busy.discard(pid)

        @rule(
            pid=st.integers(0, total - 1),
            page=st.integers(0, npages - 1),
            write=st.booleans(),
        )
        def fault(self, pid, page, write):
            if pid in self.busy:
                return
            self.busy.add(pid)
            self.expected += 1
            self.rt.protocol.fault(
                pid, self.base_vpn + page, write, lambda: self._op_done(pid)
            )

        @rule(pid=st.integers(0, total - 1))
        def release(self, pid):
            if pid in self.busy:
                return
            self.busy.add(pid)
            self.expected += 1
            self.rt.protocol.release(pid, lambda: self._op_done(pid))

        @rule(pid=st.integers(0, total - 1))
        def acquire(self, pid):
            # engines without acquire-side work skip this rule at runtime
            if not self.rt.protocol.needs_acquire or pid in self.busy:
                return
            self.busy.add(pid)
            self.expected += 1
            self.rt.protocol.acquire(pid, lambda: self._op_done(pid))

        @rule(n=st.integers(1, 300))
        def pump(self, n):
            sim = self.rt.sim
            for _ in range(n):
                if not sim.step():
                    break

        @invariant()
        def structurally_consistent(self):
            san = self.rt.sanitizer
            san.check_state(inflight_messages(self.rt))
            for vpn in self.vpns:
                san.rules.check_page(vpn)

        def teardown(self):
            try:
                self.rt.sim.run(max_events=2_000_000)
                assert self.completed == self.expected, (
                    f"{self.expected - self.completed} operations never "
                    f"completed"
                )
                self.rt.protocol.check_invariants()
                self.rt.sanitizer.check_quiescent()
            except AssertionError as e:
                _LAST_WALK_TRACE[engine] = (
                    f"engine: {engine}\nmutation: {mutation or '-'}\n"
                    f"failure: {e}\n\n"
                    + self.tracer.render_transactions()
                )
                raise

    ProtocolWalk.__name__ = f"ProtocolWalk_{engine}"
    return ProtocolWalk


def run_walk(
    engine: str,
    mutation: str | None = None,
    faulty_net: bool = False,
    max_examples: int = 120,
    stderr=None,
):
    """Run the stateful machine; returns (failed, minimal trace or None).

    Derandomized, so the same (engine, mutation) pair always shrinks to
    the same minimal counterexample.
    """
    from hypothesis import HealthCheck, settings
    from hypothesis.stateful import run_state_machine_as_test

    machine = walk_machine(engine, mutation, faulty_net)
    _LAST_WALK_TRACE.pop(engine, None)
    try:
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=max_examples,
                derandomize=True,
                database=None,
                deadline=None,
                stateful_step_count=30,
                report_multiple_bugs=False,
                suppress_health_check=list(HealthCheck),
            ),
        )
    except AssertionError as e:
        trace = _LAST_WALK_TRACE.get(engine)
        if trace is None:
            trace = f"engine: {engine}\nfailure: {e}"
        return True, trace
    return False, None


# ---------------------------------------------------------------------------
# CLI: ``repro analyze explore`` / ``repro analyze benchmark``
# ---------------------------------------------------------------------------


def _engine_job(engine: str, threads: int, pages: int, nclusters: int,
                cluster_size: int, max_states: int) -> ExploreReport:
    cfg = ExploreConfig(
        engine=engine,
        threads=threads,
        pages=pages,
        nclusters=nclusters,
        cluster_size=cluster_size,
        max_states=max_states,
    )
    return explore(cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Protocol state-space exploration and benchmarks",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    px = sub.add_parser(
        "explore", help="bounded model check of unmutated engines"
    )
    px.add_argument(
        "--engine",
        default="all",
        help="engine name or 'all' (default)",
    )
    px.add_argument("--threads", type=int, default=2)
    px.add_argument("--pages", type=int, default=1)
    px.add_argument("--clusters", type=int, default=2)
    px.add_argument("--cluster-size", type=int, default=1)
    px.add_argument("--max-states", type=int, default=250_000)
    px.add_argument("--jobs", type=int, default=None)
    pb = sub.add_parser(
        "benchmark", help="the explorer on every seeded mutation"
    )
    pb.add_argument("--mutation", action="append", default=None)
    pb.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    if args.cmd == "explore":
        engines = (
            sorted(engine_names()) if args.engine == "all" else [args.engine]
        )
        from repro.bench.parallel import parallel_map

        reports = parallel_map(
            _engine_job,
            [
                (
                    e,
                    args.threads,
                    args.pages,
                    args.clusters,
                    args.cluster_size,
                    args.max_states,
                )
                for e in engines
            ],
            jobs=args.jobs,
        )
        bad = 0
        for report in reports:
            print(report.summary())
            bad += report.caught or report.truncated
        return 1 if bad else 0

    bad = 0
    for report in mutation_benchmark(names=args.mutation, jobs=args.jobs):
        print(report.summary())
        bad += not report.caught or report.truncated
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
