"""Synchronization-piggybacked lazy-RC coherence (``protocol = "gcs"``).

A lazy release-consistency engine in the spirit of TreadMarks/Soul,
restated at cluster grain: coherence work rides on synchronization
operations instead of on faults.

* **Fetch.**  The home always grants immediately — there are no
  directories of copies to collect and no invalidation rounds.  Grants
  are stamped with the page's *version* (the count of diffs merged at
  the home); the cluster remembers it as ``fversion``.
* **Release.**  The releaser diffs each written page against its twin,
  sends the diff home (``G_DIFF``), and write-protects the page again
  (twin dropped, TLB write mappings downgraded).  Each merged diff bumps
  the home version.  ``release`` completes only when the last diff is
  acknowledged, so versions observed after a release are current.
* **Acquire** (:attr:`needs_acquire` — the runtime calls this at lock
  acquisition and barrier departure).  The acquirer compares each
  replicated page's ``fversion`` against the home version — modelling
  the write-notices that travel piggybacked on the synchronization
  grant, so the comparison itself is free.  Stale read copies are
  dropped on the spot; stale written copies are *refreshed*
  (``G_AREQ``/``G_ADATA``): the fresh base is fetched and the cluster's
  own unflushed writes are re-applied over it, Munin multiple-writer
  style.

With no exclusivity anywhere, concurrent writers to one page are legal;
word-grain diffs keep them from clobbering each other as long as the
application is data-race-free.
"""

from __future__ import annotations

from typing import Callable

from repro.core.bus import handles
from repro.core.engine import Protocol, register_engine
from repro.core.page import (
    FrameState,
    PageFrame,
    Waiter,
    apply_diff,
    make_diff,
)
from repro.hw import CacheSystem
from repro.machine import Machine
from repro.params import CostModel, MachineConfig
from repro.protocols.gcs.messages import (
    GAdata,
    GAreq,
    GData,
    GDiff,
    GRack,
    GRreq,
    GWdata,
    GWreq,
)
from repro.sim import Simulator
from repro.svm import AddressSpace, MapMode

__all__ = ["GCSProtocol"]


@register_engine
class GCSProtocol(Protocol):
    """Lazy release consistency with acquire-time version checks."""

    name = "gcs"
    needs_acquire = True

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        aspace: AddressSpace,
        cache: CacheSystem,
        config: MachineConfig,
        costs: CostModel,
    ) -> None:
        super().__init__(sim, machine, aspace, cache, config, costs)
        self.frames: list[dict[int, PageFrame]] = [
            {} for _ in range(config.num_clusters)
        ]
        #: per-processor FIFO of written pages awaiting a release flush.
        #: Per processor, not per cluster: a release flushes only the
        #: releaser's own writes (TreadMarks semantics), so one thread's
        #: synchronization traffic never write-protects pages a sibling
        #: thread on the same cluster is actively writing.
        self.dirty: list[dict[int, None]] = [
            {} for _ in range(config.total_processors)
        ]
        #: home-side diff count per page (version 0 = initial contents)
        self.versions: dict[int, int] = {}
        #: per-cluster version each replica was last made current at
        self.fversions: list[dict[int, int]] = [
            {} for _ in range(config.num_clusters)
        ]
        #: (cluster, vpn) -> completion callbacks of acquires waiting on
        #: an in-flight refresh of that page
        self._refreshing: dict[tuple[int, int], list[Callable[[], None]]] = {}
        #: pid -> (on_done, txn) of the release drain awaiting a G_RACK
        self._drain: dict[int, tuple[Callable[[], None], int]] = {}
        self.bus.register(self)

    # ------------------------------------------------------------------
    # engine surface
    # ------------------------------------------------------------------

    def arc_rules(self, sanitizer):
        from repro.protocols.gcs.arcs import GCSArcRules

        return GCSArcRules(sanitizer)

    def phase_state(self):
        # Versions are monotone (the home bumps one per applied diff);
        # behavior only ever compares a replica's fversion against the
        # home version, so the digest encodes the *staleness gap* per
        # (cluster, page).  A phase that bumps versions but restores all
        # gaps is still state-idempotent — and replay, which advances
        # neither dict, leaves every future comparison unchanged.
        gaps = []
        for fv in self.fversions:
            vpns = sorted(set(self.versions) | set(fv))
            gaps.append(
                tuple(
                    (vpn, self.versions.get(vpn, 0) - fv.get(vpn, 0))
                    for vpn in vpns
                )
            )
        return (
            self._phase_frames_state(self.frames),
            self._phase_homes_state(),
            tuple(tuple(d) for d in self.dirty),
            tuple(gaps),
            tuple(sorted((k, len(v)) for k, v in self._refreshing.items())),
            tuple(sorted(self._drain)),
        )

    def page_view(self, vpn: int):
        """Coherent contents: the home copy plus any unflushed diffs.

        Clusters may still hold written pages whose diffs have not been
        released home (e.g. writes after the last synchronization).  For
        validation snapshots, merge those outstanding word-grain diffs
        over the home copy, exactly as the next release would.
        """
        view = self.home(vpn).data
        merged = None
        for frames in self.frames:
            frame = frames.get(vpn)
            if (
                frame is None
                or frame.state is not FrameState.WRITE
                or frame.twin is None
            ):
                continue
            indices, values = make_diff(frame.data, frame.twin)
            if len(indices) == 0:
                continue
            if merged is None:
                merged = view.copy()
            apply_diff(merged, indices, values)
        return view if merged is None else merged

    # ------------------------------------------------------------------
    # fault handling (cluster side)
    # ------------------------------------------------------------------

    def _service(
        self,
        pid: int,
        vpn: int,
        want_write: bool,
        on_done: Callable[[], None],
        txn: int,
    ) -> None:
        cluster = pid // self.cluster_size
        frame = self.frames[cluster].get(vpn)

        if frame is not None and frame.lock_held:
            frame.waiters.append(Waiter(pid, want_write, on_done, txn))
            self.stats["fault_lock_waits"] += 1
            return

        if frame is not None and frame.state is FrameState.WRITE:
            self._fill(frame, pid, want_write, on_done)
            return

        if frame is not None and frame.state is FrameState.READ:
            if not want_write:
                self._fill(frame, pid, False, on_done)
                return
            # Local upgrade: twin the page and write freely — the home
            # learns about the writes at the next release.
            frame.twin = frame.data.copy()
            frame.state = FrameState.WRITE
            self.dirty[pid][vpn] = None
            self.stats["upgrades"] += 1
            self.tlbs[pid].fill(vpn, MapMode.WRITE)
            frame.tlb_dir.add(pid)
            self.sim.schedule(
                self.costs.make_twin(self.words_per_page)
                + self.costs.map_fill,
                on_done,
            )
            return

        # Fetch from the home.
        if frame is None:
            frame = PageFrame(vpn=vpn, cluster=cluster, owner_pid=pid)
            self.frames[cluster][vpn] = frame
        frame.owner_pid = pid
        frame.state = FrameState.BUSY
        frame.lock_held = True
        frame.waiters.append(Waiter(pid, want_write, on_done, txn))
        home = self.home(vpn)
        request = GWreq if want_write else GRreq
        self.stats["write_requests" if want_write else "read_requests"] += 1
        self.bus.send(
            request, vpn, pid, home.home_pid, txn,
            at=self.sim.now + self.dispatch_cost(cluster, vpn),
        )

    def _fill(
        self,
        frame: PageFrame,
        pid: int,
        want_write: bool,
        on_done: Callable[[], None],
    ) -> None:
        mode = MapMode.WRITE if want_write else MapMode.READ
        self.tlbs[pid].fill(frame.vpn, mode)
        frame.tlb_dir.add(pid)
        if want_write:
            self.dirty[pid][frame.vpn] = None
        self.stats["tlb_fill_local"] += 1
        self.sim.schedule(self.costs.map_fill, on_done)

    # ------------------------------------------------------------------
    # fetch service (home side) — always grants, no rounds
    # ------------------------------------------------------------------

    @handles(GRreq, GWreq)
    def on_request(self, msg: GRreq | GWreq) -> None:
        costs = self.costs
        vpn = msg.vpn
        home = self.home(vpn)
        work = self.dispatch_cost(msg.src_cluster, vpn) + costs.server_read
        if msg.want_write:
            work += costs.server_write_extra
        work += costs.msg_send + self._ship(msg)
        completion = self.machine.occupy(home.home_pid, work)
        self.bus.reply(
            GWdata if msg.want_write else GData, msg, completion,
            version=self.versions.get(vpn, 0), data=home.data.copy(),
        )

    def _ship(self, msg: GRreq | GWreq | GAreq) -> int:
        """Cost of copying the page to the cluster that asked for it."""
        if msg.src_cluster != msg.dst_cluster:
            return self.ship_page(msg.dst_cluster, msg.vpn)
        return self.costs.dma_page(self.lines_per_page)

    @handles(GData, GWdata)
    def on_grant(self, msg: GData | GWdata) -> None:
        cluster, vpn = msg.dst_cluster, msg.vpn
        frame = self.frames[cluster][vpn]
        assert frame.lock_held and frame.state is FrameState.BUSY, (
            f"grant for vpn {vpn} at cluster {cluster} with no fetch open"
        )
        frame.data = msg.data
        work = self.dispatch_cost(cluster, vpn)
        if msg.write_grant:
            frame.twin = msg.data.copy()
            frame.state = FrameState.WRITE
            self.dirty[msg.dst_pid][vpn] = None
            work += self.costs.make_twin(self.words_per_page)
        else:
            frame.state = FrameState.READ
        self.fversions[cluster][vpn] = msg.version
        completion = self.machine.occupy(msg.dst_pid, work)
        self.sim.schedule_at(completion, self._unlock, frame)

    def _unlock(self, frame: PageFrame) -> None:
        frame.lock_held = False
        waiters = frame.waiters
        frame.waiters = []
        for waiter in waiters:
            if frame.lock_held:
                frame.waiters.append(waiter)
            else:
                self._service(
                    waiter.pid, frame.vpn, waiter.want_write, waiter.on_done,
                    waiter.txn,
                )

    # ------------------------------------------------------------------
    # release: diff every written page home, then write-protect it
    # ------------------------------------------------------------------

    def _release(self, pid: int, on_done: Callable[[], None], txn: int) -> None:
        """Flush the next written page of ``pid``'s FIFO; re-entered
        until the FIFO is empty."""
        costs = self.costs
        cluster = pid // self.cluster_size
        pending = self.dirty[pid]
        if not pending:
            self.sim.schedule(costs.release_resume, on_done)
            return
        vpn = next(iter(pending))
        del pending[vpn]
        frame = self.frames[cluster].get(vpn)
        if frame is None or frame.state is not FrameState.WRITE:
            # Already flushed and write-protected by a concurrent release
            # from another processor of this cluster.
            self.sim.schedule(
                costs.release_entry, self._release, pid, on_done, txn
            )
            return
        if frame.lock_held:
            # An acquire-time refresh of this page is in flight; revisit
            # once it lands (refreshes are bounded, so this terminates).
            pending[vpn] = None
            self.sim.schedule(
                costs.release_entry, self._release, pid, on_done, txn
            )
            return

        # Snapshot and write-protect atomically: diff against the twin,
        # drop the twin, downgrade every write mapping.  Writes landing
        # after this instant fault, twin anew, and re-enter the FIFO.
        indices, values = make_diff(frame.data, frame.twin)
        work = costs.release_entry + costs.make_diff(self.words_per_page)
        shootdowns = 0
        for mapped_pid in sorted(frame.tlb_dir):
            tlb = self.tlbs[mapped_pid]
            if tlb.has_write(vpn):
                tlb.invalidate(vpn)
                tlb.fill(vpn, MapMode.READ)
                shootdowns += 1
        work += costs.msg_intra_ssmp * shootdowns
        frame.twin = None
        frame.state = FrameState.READ
        if len(indices) == 0:
            self.stats["empty_diffs"] += 1
            self.sim.schedule(work, self._release, pid, on_done, txn)
            return
        self.stats["diffs_sent"] += 1
        self.record_page(vpn, "diffs")
        self._drain[pid] = (on_done, txn)
        home = self.home(vpn)
        self.bus.send(
            GDiff, vpn, pid, home.home_pid, txn,
            at=self.sim.now + work + costs.msg_send
            + self.dispatch_cost(cluster, vpn),
            indices=indices, values=values,
        )

    @handles(GDiff)
    def on_diff(self, msg: GDiff) -> None:
        costs = self.costs
        vpn = msg.vpn
        home = self.home(vpn)
        apply_diff(home.data, msg.indices, msg.values)
        version = self.versions.get(vpn, 0) + 1
        self.versions[vpn] = version
        work = (
            self.dispatch_cost(msg.src_cluster, vpn)
            + costs.apply_fixed
            + costs.apply_words(len(msg.indices))
            + costs.msg_send
        )
        completion = self.machine.occupy(home.home_pid, work)
        self.bus.reply(GRack, msg, completion, version=version)

    @handles(GRack)
    def on_rack(self, msg: GRack) -> None:
        cluster, vpn = msg.dst_cluster, msg.vpn
        # The replica is current at the new version only if it was
        # current at the previous one — an interleaved diff from another
        # cluster means our copy misses words and stays stale.
        fv = self.fversions[cluster]
        if fv.get(vpn, 0) == msg.version - 1:
            fv[vpn] = msg.version
        completion = self.machine.occupy(
            msg.dst_pid, self.dispatch_cost(cluster, vpn)
        )
        on_done, txn = self._drain.pop(msg.dst_pid)
        self.sim.schedule_at(
            completion, self._release, msg.dst_pid, on_done, txn
        )

    # ------------------------------------------------------------------
    # acquire: version check, drop stale reads, refresh stale writes
    # ------------------------------------------------------------------

    def acquire(self, pid: int, on_done: Callable[[], None]) -> None:
        txn = self.bus.begin("acquire", pid)
        cluster = pid // self.cluster_size
        fv = self.fversions[cluster]
        pending = {"n": 0}

        def finish() -> None:
            self.bus.end(txn)
            on_done()

        def dec() -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                finish()

        for vpn in sorted(self.frames[cluster]):
            frame = self.frames[cluster][vpn]
            if not frame.mapped:
                continue
            if fv.get(vpn, 0) >= self.versions.get(vpn, 0):
                continue
            if frame.state is FrameState.READ:
                # The write-notice piggybacked on the synchronization
                # grant names this page: drop the stale copy.  Modelled
                # cost-free — the notice rode a message already paid for.
                for mapped_pid in sorted(frame.tlb_dir):
                    self.tlbs[mapped_pid].invalidate(vpn)
                frame.tlb_dir.clear()
                frame.state = FrameState.INVALID
                frame.data = None
                fv.pop(vpn, None)
                self.stats["acquire_drops"] += 1
                continue
            # Stale page with unflushed local writes: refresh the base
            # and re-apply our diff over it.
            self.stats["acquire_refreshes"] += 1
            pending["n"] += 1
            key = (cluster, vpn)
            waiting = self._refreshing.get(key)
            if waiting is not None:
                waiting.append(dec)
                continue
            self._refreshing[key] = [dec]
            frame.lock_held = True
            home = self.home(vpn)
            self.bus.send(
                GAreq, vpn, pid, home.home_pid, txn,
                at=self.sim.now + self.dispatch_cost(cluster, vpn),
            )
        if pending["n"] == 0:
            finish()

    @handles(GAreq)
    def on_areq(self, msg: GAreq) -> None:
        costs = self.costs
        vpn = msg.vpn
        home = self.home(vpn)
        work = (
            self.dispatch_cost(msg.src_cluster, vpn)
            + costs.server_read
            + costs.msg_send
            + self._ship(msg)
        )
        completion = self.machine.occupy(home.home_pid, work)
        self.bus.reply(
            GAdata, msg, completion,
            version=self.versions.get(vpn, 0), data=home.data.copy(),
        )

    @handles(GAdata)
    def on_adata(self, msg: GAdata) -> None:
        costs = self.costs
        cluster, vpn = msg.dst_cluster, msg.vpn
        frame = self.frames[cluster][vpn]
        assert frame.lock_held and frame.state is FrameState.WRITE, (
            f"G_ADATA for vpn {vpn} at cluster {cluster} with no refresh "
            "in flight"
        )
        base = msg.data
        indices, values = make_diff(frame.data, frame.twin)
        fresh = base.copy()
        apply_diff(fresh, indices, values)
        frame.data = fresh
        frame.twin = base
        self.fversions[cluster][vpn] = msg.version
        words = self.words_per_page
        work = (
            self.dispatch_cost(cluster, vpn)
            + costs.make_diff(words)
            + costs.apply_fixed
            + costs.apply_words(words)
            + costs.make_twin(words)
        )
        completion = self.machine.occupy(msg.dst_pid, work)
        self.sim.schedule_at(completion, self._refresh_done, frame)

    def _refresh_done(self, frame: PageFrame) -> None:
        frame.lock_held = False
        callbacks = self._refreshing.pop((frame.cluster, frame.vpn), [])
        self._unlock(frame)
        for callback in callbacks:
            callback()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        if self.hw_bypass:
            return
        for cluster, frames in enumerate(self.frames):
            for vpn, frame in frames.items():
                if frame.state is FrameState.WRITE:
                    assert frame.twin is not None, (
                        f"WRITE frame for vpn {vpn} at cluster {cluster} "
                        "has no twin"
                    )
                    assert any(
                        vpn in self.dirty[pid]
                        for pid in range(self.config.total_processors)
                        if pid // self.cluster_size == cluster
                    ), (
                        f"WRITE frame for vpn {vpn} at cluster {cluster} "
                        "missing from every release FIFO of the cluster"
                    )
        for pid, tlb in enumerate(self.tlbs):
            cluster = pid // self.cluster_size
            for vpn in tlb.mapped_vpns():
                frame = self.frames[cluster].get(vpn)
                assert frame is not None and frame.mapped, (
                    f"TLB of proc {pid} maps vpn {vpn} without a frame"
                )
                if tlb.has_write(vpn):
                    assert frame.state is FrameState.WRITE
