"""Sequentially-consistent single-writer pages (``protocol = "sc_pages"``).

The classic MSI directory protocol lifted to page grain and cluster
replication: at most one cluster holds a page with write privilege at
any time, and a write request invalidates every other copy *before* the
grant — coherence is paid at write faults, not at release points, so
``release`` is a no-op.  Against MGS this isolates what lazy release
consistency buys: the same cluster-grain replication, but eager MSI
semantics.

* **Read request.**  A current exclusive writer is downgraded first
  (``SC_DOWN`` / ``SC_WB``, keeping a shared copy); then the home grants
  a shared copy.
* **Write request.**  The writer (if any) is invalidated with writeback
  and every shared copy dropped (``SC_INV`` / ``SC_IACK``); the grant
  makes the requester the sole copy.  A requester upgrading its own
  shared copy keeps it until the grant refreshes it.
* **Home migration.**  After :attr:`MIGRATE_AFTER` consecutive exclusive
  grants to the same remote cluster, the page's home moves to that
  cluster (``home_pid`` is rebound; a simulation shortcut — the
  directory state itself moves instantly and only the data transfer the
  grant already pays for is charged).
* **peek.**  The home copy legitimately lags the exclusive writer, so
  result validation consults the writer cluster's frame first.

No twins, no diffs, no release work: the cost profile is pure
request/invalidate traffic.
"""

from __future__ import annotations

from typing import Callable

from repro.core.bus import handles
from repro.core.engine import Protocol, register_engine
from repro.core.page import FrameState, HomePage, PageFrame, ServerState, Waiter
from repro.hw import CacheSystem
from repro.machine import Machine
from repro.params import CostModel, MachineConfig
from repro.protocols.sc_pages.messages import (
    ScData,
    ScDown,
    ScIack,
    ScInv,
    ScRreq,
    ScWb,
    ScWgrant,
    ScWreq,
)
from repro.sim import Simulator
from repro.svm import AddressSpace, MapMode

__all__ = ["SCPagesProtocol"]


@register_engine
class SCPagesProtocol(Protocol):
    """Eager MSI page coherence at cluster grain, with home migration."""

    name = "sc_pages"

    #: consecutive remote exclusive grants to one cluster before the
    #: page's home migrates there
    MIGRATE_AFTER = 3

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
        #: vpn -> request message currently being serviced by a round
        self.pending: dict[int, ScRreq | ScWreq] = {}
        #: vpn -> (cluster, consecutive remote exclusive grants)
        self.streaks: dict[int, tuple[int, int]] = {}
        self.bus.register(self)

    # ------------------------------------------------------------------
    # engine surface
    # ------------------------------------------------------------------

    def arc_rules(self, sanitizer):
        from repro.protocols.sc_pages.arcs import SCPagesArcRules

        return SCPagesArcRules(sanitizer)

    def phase_state(self):
        return (
            self._phase_frames_state(self.frames),
            self._phase_homes_state(),
            tuple(
                sorted(
                    (vpn, type(msg).__name__) for vpn, msg in self.pending.items()
                )
            ),
            tuple(sorted(self.streaks.items())),
        )

    def home_cluster(self, vpn: int) -> int:
        """Home migration rebinds ``home_pid`` away from the address-space
        default, so cost accounting must follow the live binding."""
        page = self.homes.get(vpn)
        if page is not None:
            return page.home_pid // self.cluster_size
        return super().home_cluster(vpn)

    def page_view(self, vpn: int):
        """The exclusive writer's copy is authoritative, not the home."""
        home = self.homes.get(vpn)
        if home is not None and home.write_dir:
            (writer,) = home.write_dir
            frame = self.frames[writer].get(vpn)
            if frame is not None and frame.data is not None:
                return frame.data
        return super().page_view(vpn)

    # ------------------------------------------------------------------
    # fault handling (cluster side); SC needs no release-point work, as
    # writes were ordered eagerly, so the default release hook stands
    # ------------------------------------------------------------------

    def _service(
        self,
        pid: int,
        vpn: int,
        want_write: bool,
        on_done: Callable[[], None],
        txn: int,
        served: bool = False,
    ) -> None:
        cluster = pid // self.cluster_size
        frame = self.frames[cluster].get(vpn)

        if frame is not None and (
            frame.lock_held or (frame.queued_invals and not served)
        ):
            # Locked, or a revocation is parked on the frame — granting
            # more local accesses now would starve the home's round.
            # Waiters replayed from ``_unlock`` (``served``) are exempt:
            # the grant was for them, and their fill is what triggers the
            # deferred-revocation drain.
            frame.waiters.append(Waiter(pid, want_write, on_done, txn))
            self.stats["fault_lock_waits"] += 1
            return

        if frame is not None and frame.state is FrameState.WRITE:
            self._fill(frame, pid, want_write, on_done)
            return

        if (
            frame is not None
            and frame.state is FrameState.READ
            and not want_write
        ):
            self._fill(frame, pid, False, on_done)
            return

        # Fetch, or upgrade of a shared copy: one home round-trip.
        if frame is None:
            frame = PageFrame(vpn=vpn, cluster=cluster, owner_pid=pid)
            self.frames[cluster][vpn] = frame
        if frame.state is FrameState.INVALID:
            frame.owner_pid = pid
            frame.state = FrameState.BUSY
        # (a READ frame stays READ while its upgrade is in flight)
        frame.lock_held = True
        frame.waiters.append(Waiter(pid, want_write, on_done, txn))
        home = self.home(vpn)
        request = ScWreq if want_write else ScRreq
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
        self.stats["tlb_fill_local"] += 1
        # Progress guarantee: a revocation must not land between this fill
        # and the access it enables, or write-shared pages ping-pong
        # between clusters with no thread ever completing its access.
        # ``pinv_count`` counts fills whose access is still pending; SC_DOWN
        # and SC_INV arriving meanwhile park in ``queued_invals``.
        frame.pinv_count += 1
        self.sim.schedule(self.costs.map_fill, self._fill_done, frame, on_done)

    def _fill_done(
        self, frame: PageFrame, on_done: Callable[[], None]
    ) -> None:
        on_done()  # resumes the thread; the access completes synchronously
        frame.pinv_count -= 1
        if frame.pinv_count == 0 and frame.queued_invals:
            queued = frame.queued_invals
            frame.queued_invals = []
            for msg in queued:
                if msg.label == "SC_DOWN":
                    self._do_down(msg)
                else:
                    self._do_inv(msg)
            if frame.waiters and not frame.lock_held:
                self._unlock(frame)

    # ------------------------------------------------------------------
    # request service (home side)
    # ------------------------------------------------------------------

    @handles(ScRreq, ScWreq)
    def on_request(self, msg: ScRreq | ScWreq) -> None:
        home = self.home(msg.vpn)
        dispatch = self.dispatch_cost(msg.src_cluster, msg.vpn)
        if home.state is ServerState.REL_IN_PROG:
            self.machine.occupy(home.home_pid, dispatch)
            (home.wr if msg.want_write else home.rd).append(msg)
            self.stats["requests_queued_on_round"] += 1
            return
        self._begin_service(home, msg, dispatch)

    def _begin_service(
        self, home: HomePage, msg: ScRreq | ScWreq, dispatch: int
    ) -> None:
        req_cluster = msg.src_cluster
        # single-writer: write_dir holds at most one cluster
        writer = min(home.write_dir) if home.write_dir else None
        assert writer != req_cluster, (
            f"cluster {req_cluster} requested vpn {home.vpn} it already "
            "holds exclusively"
        )
        downs = [writer] if writer is not None else []
        invs = (
            sorted(home.read_dir - {req_cluster}) if msg.want_write else []
        )
        if not downs and not invs:
            self._grant(home, msg, dispatch)
            return
        # One coherence round per page at a time; REL_IN_PROG doubles as
        # the round-in-progress marker.
        home.state = ServerState.REL_IN_PROG
        home.count = len(downs) + len(invs)
        home.round_txn = msg.txn
        self.pending[home.vpn] = msg
        self.stats["coherence_rounds"] += 1
        work = (
            dispatch
            + self.costs.server_release
            + self.costs.msg_send * home.count
        )
        completion = self.machine.occupy(home.home_pid, work)
        for cluster in downs:
            self.bus.send(
                ScDown, home.vpn, home.home_pid,
                self.frames[cluster][home.vpn].owner_pid, msg.txn,
                at=completion, drop=msg.want_write,
            )
        for cluster in invs:
            self.bus.send(
                ScInv, home.vpn, home.home_pid,
                self.frames[cluster][home.vpn].owner_pid, msg.txn,
                at=completion,
            )

    def _grant(
        self, home: HomePage, msg: ScRreq | ScWreq, dispatch: int
    ) -> None:
        costs = self.costs
        vpn = home.vpn
        req_cluster, req_pid = msg.src_cluster, msg.src_pid
        server_pid = home.home_pid
        home_cluster = server_pid // self.cluster_size
        work = dispatch + costs.server_read + costs.msg_send
        if msg.want_write:
            work += costs.server_write_extra
        if req_cluster != home_cluster:
            work += self.ship_page(home_cluster, vpn)
        else:
            work += costs.dma_page(self.lines_per_page)
        payload = home.data.copy()
        if msg.want_write:
            home.read_dir.discard(req_cluster)
            home.write_dir = {req_cluster}
            home.state = ServerState.WRITE
            self._note_exclusive_grant(home, req_cluster, req_pid)
        else:
            home.read_dir.add(req_cluster)
            if not home.write_dir:
                home.state = ServerState.READ
        completion = self.machine.occupy(server_pid, work)
        self.bus.send(
            ScWgrant if msg.want_write else ScData, vpn, server_pid, req_pid,
            msg.txn, at=completion, data=payload,
        )

    def _note_exclusive_grant(
        self, home: HomePage, req_cluster: int, req_pid: int
    ) -> None:
        """Home migration: follow a run of remote exclusive grants."""
        vpn = home.vpn
        if req_cluster == home.home_pid // self.cluster_size:
            self.streaks.pop(vpn, None)
            return
        cluster, n = self.streaks.get(vpn, (req_cluster, 0))
        n = n + 1 if cluster == req_cluster else 1
        if n >= self.MIGRATE_AFTER:
            home.home_pid = req_pid
            self.streaks.pop(vpn, None)
            self.stats["home_migrations"] += 1
            self.record_page(vpn, "migrations")
        else:
            self.streaks[vpn] = (req_cluster, n)

    # ------------------------------------------------------------------
    # coherence round (client side)
    # ------------------------------------------------------------------

    @handles(ScDown)
    def on_down(self, msg: ScDown) -> None:
        frame = self.frames[msg.dst_cluster][msg.vpn]
        # Defer while a just-granted access is pending (progress
        # guarantee) or while the write grant this revocation refers to
        # is still in flight — after a home migration the new home's
        # processor can issue a revocation that outruns the old home's
        # queued grant.
        if frame.pinv_count > 0 or frame.state is not FrameState.WRITE:
            frame.queued_invals.append(msg)
            self.stats["revocations_deferred"] += 1
            return
        self._do_down(msg)

    def _do_down(self, msg: ScDown) -> None:
        cluster, vpn = msg.dst_cluster, msg.vpn
        costs = self.costs
        frame = self.frames[cluster][vpn]
        assert frame.state is FrameState.WRITE, (
            f"SC_DOWN for vpn {vpn} but cluster {cluster} is {frame.state}"
        )
        lines = self.lines_per_page
        self.cache.flush_page(cluster, vpn)
        work = (
            self.dispatch_cost(cluster, vpn)
            + costs.clean_page(lines)
            + costs.dma_page(lines)
            + costs.msg_send
            + costs.msg_intra_ssmp * len(frame.tlb_dir)  # TLB shootdown
        )
        payload = frame.data.copy()
        if msg.drop:
            work += costs.free_page
            self._drop_frame(frame)
            kept = False
        else:
            for pid in sorted(frame.tlb_dir):
                tlb = self.tlbs[pid]
                if tlb.has_write(vpn):
                    tlb.invalidate(vpn)
                    tlb.fill(vpn, MapMode.READ)
            frame.state = FrameState.READ
            kept = True
            self.stats["downgrades"] += 1
        completion = self.machine.occupy(msg.dst_pid, work)
        self.bus.reply(ScWb, msg, completion, kept=kept, data=payload)

    @handles(ScInv)
    def on_inv(self, msg: ScInv) -> None:
        frame = self.frames[msg.dst_cluster][msg.vpn]
        # Defer while a just-granted access is pending, or while the read
        # grant that registered this cluster in ``read_dir`` is still in
        # flight (BUSY: answering now would orphan the arriving copy).
        # A READ frame with an upgrade outstanding must answer
        # immediately, though — the home's round is blocked on our ack
        # while our own request queues behind it (``_do_inv`` handles
        # that with the BUSY transition).
        if frame.pinv_count > 0 or frame.state is FrameState.BUSY:
            frame.queued_invals.append(msg)
            self.stats["revocations_deferred"] += 1
            return
        self._do_inv(msg)

    def _do_inv(self, msg: ScInv) -> None:
        cluster, vpn = msg.dst_cluster, msg.vpn
        costs = self.costs
        frame = self.frames[cluster][vpn]
        work = (
            self.dispatch_cost(cluster, vpn)
            + costs.free_page
            + costs.msg_send
            + costs.msg_intra_ssmp * len(frame.tlb_dir)
        )
        if frame.lock_held:
            # An upgrade of this copy is in flight; the grant reinstalls.
            for pid in sorted(frame.tlb_dir):
                self.tlbs[pid].invalidate(vpn)
            frame.tlb_dir.clear()
            frame.data = None
            frame.state = FrameState.BUSY
        else:
            self._drop_frame(frame)
        completion = self.machine.occupy(msg.dst_pid, work)
        self.bus.reply(ScIack, msg, completion)

    def _drop_frame(self, frame: PageFrame) -> None:
        for pid in sorted(frame.tlb_dir):
            self.tlbs[pid].invalidate(frame.vpn)
        frame.tlb_dir.clear()
        frame.state = FrameState.INVALID
        frame.data = None

    # ------------------------------------------------------------------
    # coherence round (home side)
    # ------------------------------------------------------------------

    @handles(ScWb)
    def on_wb(self, msg: ScWb) -> None:
        home = self.home(msg.vpn)
        assert home.state is ServerState.REL_IN_PROG and home.count > 0, (
            f"SC_WB for vpn {msg.vpn} without a round open"
        )
        costs = self.costs
        home.data[:] = msg.data
        home.write_dir.discard(msg.src_cluster)
        if msg.kept:
            home.read_dir.add(msg.src_cluster)
        work = (
            self.dispatch_cost(msg.src_cluster, msg.vpn)
            + costs.apply_fixed
            + self.words_per_page * costs.apply_full_per_word
        )
        self._ack_round(home, work)

    @handles(ScIack)
    def on_iack(self, msg: ScIack) -> None:
        home = self.home(msg.vpn)
        assert home.state is ServerState.REL_IN_PROG and home.count > 0, (
            f"SC_IACK for vpn {msg.vpn} without a round open"
        )
        home.read_dir.discard(msg.src_cluster)
        self._ack_round(home, self.dispatch_cost(msg.src_cluster, msg.vpn))

    def _ack_round(self, home: HomePage, work: int) -> None:
        completion = self.machine.occupy(home.home_pid, work)
        home.count -= 1
        if home.count == 0:
            self.sim.schedule_at(completion, self._finish_round, home)

    def _finish_round(self, home: HomePage) -> None:
        home.state = ServerState.READ
        home.round_txn = -1
        msg = self.pending.pop(home.vpn)
        self._grant(home, msg, 0)
        self._next_queued(home)

    def _next_queued(self, home: HomePage) -> None:
        while home.state is not ServerState.REL_IN_PROG and (
            home.rd or home.wr
        ):
            queue = home.rd if home.rd else home.wr
            msg = queue.pop(0)
            self._begin_service(home, msg, 0)

    # ------------------------------------------------------------------
    # grants (client side)
    # ------------------------------------------------------------------

    @handles(ScData, ScWgrant)
    def on_grant(self, msg: ScData | ScWgrant) -> None:
        cluster, vpn = msg.dst_cluster, msg.vpn
        frame = self.frames[cluster][vpn]
        assert frame.lock_held, (
            f"grant for vpn {vpn} at cluster {cluster} with no request open"
        )
        frame.data = msg.data
        frame.state = (
            FrameState.WRITE if msg.write_grant else FrameState.READ
        )
        completion = self.machine.occupy(
            msg.dst_pid, self.dispatch_cost(cluster, vpn)
        )
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
                    waiter.txn, served=True,
                )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        if self.hw_bypass:
            return
        for vpn, home in self.homes.items():
            assert len(home.write_dir) <= 1, (
                f"vpn {vpn} has multiple exclusive writers: {home.write_dir}"
            )
            assert not (home.write_dir & home.read_dir), (
                f"vpn {vpn} lists cluster as both reader and writer"
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
