"""The Runtime: builds a simulated DSSMP and drives application threads.

Typical use (what every app in :mod:`repro.apps` does):

.. code-block:: python

    rt = Runtime(MachineConfig(total_processors=8, cluster_size=2))
    data = rt.array("data", 1024)
    data.init(range(1024))
    lk = rt.create_lock()
    rt.spawn_all(worker)           # one generator per processor
    result = rt.run()
    print(result.total_time, result.breakdown())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.engine import create_engine
from repro.hw import CacheSystem
from repro.machine import Machine
from repro.params import CostModel, MachineConfig
from repro.runtime.env import Env
from repro.runtime.options import RunOptions
from repro.runtime.replay import PhaseRecorder, resolve_replay_store
from repro.runtime.shared import SharedArray
from repro.runtime.thread import ThreadContext
from repro.sim import Simulator
from repro.svm import AccessKind, AddressSpace
from repro.sync import LockStats, MGSLock, TreeBarrier

__all__ = ["DEFAULT_QUANTUM", "Runtime", "RunResult"]

#: cycles a thread runs before yielding to the scheduler; every app
#: harness and the run-cache key default to it
DEFAULT_QUANTUM = 1500


@dataclass
class RunResult:
    """Everything a benchmark needs from one simulated execution."""

    config: MachineConfig
    total_time: int
    threads: list[ThreadContext]
    lock_stats: LockStats
    protocol_stats: dict[str, int]
    messages_inter_ssmp: int
    messages_intra_ssmp: int
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: repro.net roll-up: models, queue cycles, drops, retransmits, ...
    network_stats: dict = field(default_factory=dict)
    #: per-MsgType delivered counts/bytes/latency from the protocol bus
    message_flows: dict = field(default_factory=dict)
    #: fault/release transaction latency percentiles (p50/p95/max)
    transactions: dict = field(default_factory=dict)
    #: phase-replay activity: phases replayed/recorded this run, plus
    #: persistent replay-store traffic when a store was attached (loads:
    #: records read, hits: phases replayed from them, stores).
    #: Reporting only — deliberately *excluded* from the run-cache
    #: payload so a replay-warm run stays byte-identical to a cold one
    #: (``metrics.export`` publishes it; the cache does not).
    replay_cache: dict = field(default_factory=dict)

    def breakdown(self) -> dict[str, float]:
        """Average per-processor cycle breakdown (the paper's bars).

        Time between a thread's finish and the end of the run counts as
        barrier wait (threads end at the final barrier together; residual
        skew is synchronization slack).
        """
        n = len(self.threads)
        out = {"user": 0.0, "lock": 0.0, "barrier": 0.0, "mgs": 0.0}
        for t in self.threads:
            out["user"] += t.user
            out["lock"] += t.lock
            out["barrier"] += t.barrier + (self.total_time - t.finish_time)
            out["mgs"] += t.mgs
        return {k: v / n for k, v in out.items()}


class Runtime:
    """One simulated DSSMP execution context."""

    #: callables invoked with every newly constructed Runtime.  The CLI
    #: uses this to attach :class:`~repro.trace.ProtocolTracer` instances
    #: (``--trace-pages``) without threading arguments through the app
    #: modules.  Append and remove around a run; entries persist for the
    #: process otherwise.
    construction_hooks: list[Callable[["Runtime"], None]] = []

    def __init__(
        self,
        config: MachineConfig,
        costs: CostModel | None = None,
        quantum: int = DEFAULT_QUANTUM,
        analysis=None,
        options: RunOptions | None = None,
    ) -> None:
        self.config = config
        self.costs = costs if costs is not None else CostModel()
        self.quantum = quantum
        #: how to execute (fast paths, phase replay and its store); None
        #: resolves the ``REPRO_*`` environment here
        self.options = options if options is not None else RunOptions.from_env()
        self.sim = Simulator()
        self.machine = Machine(self.sim, config, self.costs)
        self.aspace = AddressSpace(config)
        self.cache = CacheSystem(config, self.costs)
        self.protocol = create_engine(
            config.protocol,
            self.sim,
            self.machine,
            self.aspace,
            self.cache,
            config,
            self.costs,
        )
        self.barrier_obj = TreeBarrier(self.machine, config, self.costs)
        self.locks: list[MGSLock] = []
        self.threads: list[ThreadContext] = []
        self.envs: list[Env] = []
        # Phased execution (spawn_phases): factory producing one fresh
        # generator per (thread, phase), plus the per-phase replay keys.
        self._phase_factory = None
        self._phase_count = 0
        self._phase_keys: list = []
        #: the PhaseRecorder of the last phased run (None when replay was
        #: off or never fired); tests read ``replayed``/``recorded`` here.
        self.phase_recorder = None
        # Opt-in checkers (see repro.analysis): pure observers, attached
        # before threads spawn so Env instrumentation sees them.  Both
        # stay None — and every hot path identical — when analysis is off.
        self.sanitizer = None
        self.race_detector = None
        if analysis:
            from repro.analysis import setup_analysis

            setup_analysis(self, analysis)
        for hook in Runtime.construction_hooks:
            hook(self)

    # ------------------------------------------------------------------
    # setup API
    # ------------------------------------------------------------------

    def array(
        self,
        name: str,
        length: int,
        home: int | Callable[[int], int] | None = None,
        kind: AccessKind = AccessKind.ARRAY,
    ) -> SharedArray:
        """Allocate a shared array of ``length`` words."""
        return SharedArray(self, name, length, home, kind)

    def create_lock(self, home_cluster: int | None = None) -> MGSLock:
        """Create an MGS lock; its global lock lives on ``home_cluster``."""
        lock_id = len(self.locks)
        if home_cluster is None:
            home_cluster = lock_id % self.config.num_clusters
        lk = MGSLock(self.machine, self.config, self.costs, lock_id, home_cluster)
        self.locks.append(lk)
        return lk

    def spawn(self, genfunc: Callable[[Env], object]) -> ThreadContext:
        """Add one application thread; it runs on the next processor."""
        if self._phase_factory is not None:
            raise RuntimeError("spawn cannot be mixed with spawn_phases")
        pid = len(self.threads)
        if pid >= self.config.total_processors:
            raise RuntimeError("more threads than processors")
        thread = ThreadContext(pid=pid, gen=None)  # type: ignore[arg-type]
        env = Env(self, thread)
        thread.gen = genfunc(env)
        self.threads.append(thread)
        self.envs.append(env)
        return thread

    def spawn_all(self, genfunc: Callable[[Env], object]) -> None:
        """One thread per processor."""
        for _ in range(self.config.total_processors):
            self.spawn(genfunc)

    def spawn_phases(
        self,
        factory: Callable[[Env, int], object],
        phases: int,
        keys: list | None = None,
    ) -> None:
        """Run the application as a sequence of barrier-delimited phases.

        ``factory(env, phase_index)`` must return a *fresh* generator for
        every call — one per (processor, phase).  Phases execute in order;
        each thread's clock and cycle buckets carry across phases, so the
        result is the same simulated execution an equivalent
        :meth:`spawn_all` program would produce — phase boundaries only
        add the scheduling points that already exist at the barrier each
        phase is expected to end with.

        The payoff is **phase replay**: because a fresh generator holds
        no state from earlier phases, the machine state at a phase
        boundary fully determines the phase's behavior.  When two phases
        start from the same digest (same ``keys`` entry, same machine
        state — see :mod:`repro.runtime.replay`), the second one is
        applied in closed form instead of being re-simulated.

        Args:
            factory: ``(env, phase_index) -> generator``.
            phases: number of phases to run.
            keys: optional per-phase replay keys (default: the phase
                index, which never replays; iterative apps pass a value
                that repeats, e.g. ``0`` for every sweep iteration, or
                the iteration's parameter tuple).
        """
        if self.threads:
            raise RuntimeError("spawn_phases cannot be mixed with spawn")
        if phases <= 0:
            raise ValueError(f"need at least one phase (got {phases})")
        if keys is not None and len(keys) != phases:
            raise ValueError(
                f"keys has {len(keys)} entries for {phases} phases"
            )
        self._phase_factory = factory
        self._phase_count = phases
        self._phase_keys = list(keys) if keys is not None else list(range(phases))
        for pid in range(self.config.total_processors):
            self.threads.append(ThreadContext(pid=pid, gen=None))  # type: ignore[arg-type]

    def spawn_epochs(
        self,
        factory: Callable[[Env, int], object],
        epochs: int,
        keys: list | None = None,
    ) -> None:
        """Run a non-phased application as a sequence of epochs —
        replay below barrier granularity.

        The phased driver never required a literal barrier at a
        boundary, only *quiescence*: every generator exhausted and the
        event heap drained.  Any program point with that property — the
        end of an outer loop iteration closed by its own lock releases,
        a super-quantum of uniform per-thread work — is therefore a
        legal replay boundary.  ``spawn_epochs`` exposes exactly that:
        it is :meth:`spawn_phases` under a name that makes the
        epoch-granularity contract explicit, and it shares all of its
        machinery, digesting :meth:`snapshot` at every epoch boundary.

        An epoch whose execution proves state-idempotent — matmul
        recomputing an identical product, TSP re-walking a settled
        search — is recorded once and replayed in closed form on every
        later occurrence of its digest, in this run or (with the replay
        store) any other.  Epochs that change state simply execute;
        correctness never depends on the app's idempotence claim.  The
        same auto-disable rules apply (faults, transport, analysis
        checkers, ``RunOptions.replay`` off).

        Args:
            factory: ``(env, epoch_index) -> generator``, fresh per
                (processor, epoch).
            epochs: number of epochs to run.
            keys: optional per-epoch replay keys; epochs replay only
                when their key *and* machine-state digest coincide, so
                give structurally different epochs (e.g. a drain/
                epilogue) distinct keys.
        """
        self.spawn_phases(factory, epochs, keys=keys)

    def annotate_benign_race(
        self, addr: int, words: int = 1, reason: str = ""
    ) -> None:
        """Declare a documented benign race (no-op without a detector).

        Applications use this for accesses that race by design — e.g.
        TSP's unlocked read of the monotonically tightening incumbent
        bound — so :class:`~repro.analysis.races.RaceDetector` can
        certify the rest of the execution race-free.
        """
        if self.race_detector is not None:
            self.race_detector.exempt(addr, words, reason)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, max_events: int | None = None) -> RunResult:
        """Drive every thread to completion and gather statistics."""
        if not self.threads:
            raise RuntimeError("no threads spawned")
        if self._phase_factory is not None:
            return self._run_phased(max_events)
        for t in self.threads:
            self.sim.schedule_at(0, self._resume, t, None)
        self.sim.run(max_events=max_events)
        self._check_finished()
        if self.sanitizer is not None:
            self.sanitizer.check_quiescent()
        return self._collect_result()

    def _check_finished(self) -> None:
        unfinished = [t.pid for t in self.threads if not t.done]
        if unfinished:
            raise RuntimeError(
                f"threads {unfinished} never finished (deadlock or missing barrier)"
            )

    def _replay_active(self) -> bool:
        """Whether this phased run may record and replay phases.

        Fault injection and the reliable transport consume absolute
        per-link counters a time-translated replay cannot reproduce, and
        the analysis checkers observe the very messages replay elides, so
        any of them forces full execution.  (Engines additionally opt in
        per-protocol via ``Protocol.phase_state``.)
        """
        return (
            self.options.replay
            and self.machine.transport is None
            and self.machine.faults is None
            and self.sanitizer is None
            and self.race_detector is None
        )

    def _start_phase(self, index: int) -> None:
        """Hand every thread a fresh generator and schedule its resume."""
        self.envs = []
        for t in self.threads:
            t.done = False
            env = Env(self, t)
            t.gen = self._phase_factory(env, index)
            self.envs.append(env)
            self.sim.schedule_at(t.time, self._resume, t, None)

    def _run_phased(self, max_events: int | None) -> RunResult:
        recorder = None
        if self._replay_active():
            recorder = PhaseRecorder(
                self, store=resolve_replay_store(self.options)
            )
        self.phase_recorder = recorder
        for index in range(self._phase_count):
            base = min(t.time for t in self.threads)
            # Phase boundaries are quiescent; rewind the clock to the
            # earliest thread so schedule_at accepts every resume.
            self.sim.reset_quiescent(base)
            digest = None
            pre_snapshot = pre_events = None
            if recorder is not None:
                digested = recorder.state_digest(self._phase_keys[index])
                if digested is not None:
                    digest = digested[0]
                    rec = recorder.lookup(digest)
                    if rec is not None:
                        recorder.apply(rec)
                        continue
                    pre_snapshot = recorder.cells.snapshot()
                    pre_events = self.sim.events_processed
            self._start_phase(index)
            self.sim.run(max_events=max_events)
            self._check_finished()
            if digest is not None:
                # Replay is sound only for state-idempotent phases: the
                # execution must have returned the machine to its entry
                # digest (clocks aside), so applying the delta later
                # needs no state restoration at all.
                post = recorder.state_digest(self._phase_keys[index])
                if post is not None and post[0] == digest:
                    recorder.record(
                        digest,
                        pre_snapshot,
                        base,
                        self.sim.events_processed - pre_events,
                    )
        if self.sanitizer is not None:
            self.sanitizer.check_quiescent()
        return self._collect_result()

    def snapshot(self, base: int | None = None) -> dict:
        """Every behaviour-bearing piece of machine state, one entry per
        component, each reported by the component's own ``state()``
        (clock-like values relative to ``base``, clamped at zero;
        statistics and configuration left out).  ``base`` defaults to
        the earliest thread clock, else the simulator clock."""
        if base is None:
            base = min((t.time for t in self.threads), default=self.sim.now)
        return {
            "threads": tuple(t.state(base) for t in self.threads),
            "machine": self.machine.state(base),
            "tlbs": tuple(tlb.state() for tlb in self.protocol.tlbs),
            "cache": self.cache.state(),
            "locks": tuple(lk.state() for lk in self.locks),
            "barrier": self.barrier_obj.state(),
            "bus": self.protocol.bus.state(),
            "engine": self.protocol.phase_state(),
        }

    def _collect_result(self) -> RunResult:
        total = max(t.finish_time for t in self.threads)
        lock_stats = LockStats()
        for lk in self.locks:
            lock_stats.acquires += lk.stats.acquires
            lock_stats.hits += lk.stats.hits
            lock_stats.token_transfers += lk.stats.token_transfers
        recorder = self.phase_recorder
        return RunResult(
            config=self.config,
            total_time=total,
            threads=self.threads,
            lock_stats=lock_stats,
            protocol_stats=self.protocol.stats.as_dict(),
            messages_inter_ssmp=self.machine.stats.inter_ssmp,
            messages_intra_ssmp=self.machine.stats.intra_ssmp,
            cache_stats={k.value: v for k, v in self.cache.stats.items()},
            network_stats=self.machine.network_summary(),
            message_flows=self.protocol.bus.flow_summary(),
            transactions=self.protocol.bus.transaction_summary(),
            replay_cache=(
                recorder.cache_summary() if recorder is not None else {}
            ),
        )

    # ------------------------------------------------------------------
    # the driver
    # ------------------------------------------------------------------

    def _absorb_stolen(self, t: ThreadContext) -> None:
        """Handler cycles executed on this processor while the thread ran
        push the thread's clock forward; they are MGS protocol time."""
        stolen = self.machine.take_stolen(t.pid)
        if stolen:
            t.charge_mgs(stolen)

    def _discard_stolen(self, t: ThreadContext) -> None:
        """While the thread was blocked, its processor was idle anyway;
        handler cycles do not additionally delay it."""
        self.machine.take_stolen(t.pid)

    def _resume(self, t: ThreadContext, value=None) -> None:
        self._absorb_stolen(t)
        try:
            req = t.gen.send(value)
        except StopIteration:
            t.done = True
            t.finish_time = t.time
            return
        op = req[0]
        if op == "pause":
            t.last_yield = t.time
            self.sim.schedule_at(t.time, self._resume, t, None)
        elif op == "fault":
            self._handle_fault(t, req[1], req[2])
        elif op == "lock":
            self._handle_lock(t, req[1])
        elif op == "unlock":
            self._handle_unlock(t, req[1])
        elif op == "barrier":
            self._handle_barrier(t)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown thread request {req!r}")

    def _wake(self, t: ThreadContext, bucket: str) -> None:
        now = self.sim.now
        elapsed = now - t.block_start
        t.time = now
        setattr(t, bucket, getattr(t, bucket) + elapsed)
        self._discard_stolen(t)
        t.last_yield = now
        self._resume(t, None)

    def _wake_acquire(self, t: ThreadContext, bucket: str) -> None:
        """Wake after a lock grant / barrier departure, running the
        engine's acquire-side coherence first when it has any.

        Engines that piggyback coherence on synchronization (gcs) do
        their invalidation work here; the wait so far lands in the sync
        bucket and the coherence work in the mgs bucket.  For engines
        without acquire work this is exactly :meth:`_wake`.
        """
        if not self.protocol.needs_acquire:
            self._wake(t, bucket)
            return
        now = self.sim.now
        setattr(t, bucket, getattr(t, bucket) + now - t.block_start)
        t.time = now
        t.block_start = now
        self.protocol.acquire(t.pid, lambda: self._wake(t, "mgs"))

    def _handle_fault(self, t: ThreadContext, vpn: int, want_write: bool) -> None:
        t.block_start = t.time
        self.sim.schedule_at(
            t.time,
            self.protocol.fault,
            t.pid,
            vpn,
            want_write,
            lambda: self._wake(t, "mgs"),
        )

    def _handle_lock(self, t: ThreadContext, lk: MGSLock) -> None:
        t.block_start = t.time
        detector = self.race_detector
        if detector is None:
            wake = lambda: self._wake_acquire(t, "lock")  # noqa: E731
        else:
            # Happens-before: join the lock's clock at acquisition time.
            def wake() -> None:
                detector.on_acquire(t.pid, lk.lock_id)
                self._wake_acquire(t, "lock")

        self.sim.schedule_at(t.time, lk.acquire, t.pid, wake)

    def _handle_unlock(self, t: ThreadContext, lk: MGSLock) -> None:
        t.block_start = t.time
        if self.race_detector is not None:
            # Happens-before: publish the thread's clock through the
            # lock at the release point (before the DUQ flush; the
            # thread performs no accesses in between).
            self.race_detector.on_release(t.pid, lk.lock_id)
        if self.protocol.hw_bypass:
            self.sim.schedule_at(
                t.time, lk.release, t.pid, lambda: self._wake(t, "lock")
            )
            return

        # Release consistency: flush the DUQ, then free the lock.  The
        # flush is software coherence (MGS bucket); waiters meanwhile
        # accumulate lock time — critical-section dilation, emerging.
        def after_flush() -> None:
            now = self.sim.now
            t.mgs += now - t.block_start
            t.time = now
            t.block_start = now
            lk.release(t.pid, lambda: self._wake(t, "lock"))

        self.sim.schedule_at(t.time, self.protocol.release, t.pid, after_flush)

    def _handle_barrier(self, t: ThreadContext) -> None:
        t.block_start = t.time
        detector = self.race_detector
        if detector is None:
            wake = lambda: self._wake_acquire(t, "barrier")  # noqa: E731
        else:
            # Happens-before: a barrier is a release by all arrivals
            # followed by an acquire by all departures.
            detector.on_barrier_arrive(t.pid)

            def wake() -> None:
                detector.on_barrier_depart(t.pid)
                self._wake_acquire(t, "barrier")

        if self.protocol.hw_bypass:
            self.sim.schedule_at(t.time, self.barrier_obj.arrive, t.pid, wake)
            return

        def after_flush() -> None:
            now = self.sim.now
            t.mgs += now - t.block_start
            t.time = now
            t.block_start = now
            self.barrier_obj.arrive(t.pid, wake)

        self.sim.schedule_at(t.time, self.protocol.release, t.pid, after_flush)
