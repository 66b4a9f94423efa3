"""The Local Client engine (Figure 4, left).

Runs on the processor that suffers a TLB fault.  It maintains mapping
state (the three TLB states), acquires the per-mapping page-table lock,
and either fills the TLB from a resident local frame (arc 1/3/4), starts
an upgrade (arcs 2/5 via the Remote Client), or negotiates with the home
Server for replication of the page (arc 5, ``RREQ``/``WREQ``).

The Local Client also implements the client side of release operations:
walking the DUQ and sending one ``REL`` per dirty page, continuing on each
``RACK`` (arcs 8-10).

All traffic flows as typed messages over the protocol bus
(:mod:`repro.core.bus`); inbound arcs are the ``@handles``-marked
methods.  Every message carries the transaction id of the fault or
release operation it serves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.bus import handles
from repro.core.messages import (
    Rack,
    Rdat,
    Rel,
    Rreq,
    UpAck,
    Upgrade,
    Wdat,
    Wreq,
)
from repro.core.page import FrameState, PageFrame, Waiter
from repro.svm import MapMode

if TYPE_CHECKING:
    from repro.protocols.mgs.protocol import MGSProtocol

__all__ = ["LocalClient"]


class LocalClient:
    """Client-side mapping management for every processor."""

    def __init__(self, ctx: "MGSProtocol") -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def _service(
        self,
        pid: int,
        vpn: int,
        want_write: bool,
        on_done: Callable[[], None],
        txn: int,
    ) -> None:
        """Fault body, running with the page-table state visible (after
        the trap and page-table probe of ``Protocol.fault``).

        Re-entered for waiters when the mapping lock is released, so it
        must handle every frame state.
        """
        ctx = self.ctx
        cluster = pid // ctx.cluster_size
        frame = ctx.frames[cluster].get(vpn)

        if frame is not None and frame.lock_held:
            # Mapping lock busy (fault, upgrade, or invalidation in
            # progress): queue, exactly like spinning on the lock.
            frame.waiters.append(Waiter(pid, want_write, on_done, txn))
            ctx.stats["fault_lock_waits"] += 1
            return

        if frame is not None and frame.state is FrameState.WRITE:
            # Arc 1 (read) or arcs 3,4 (write): local fill.
            self._local_fill(frame, pid, want_write, on_done)
            return

        if frame is not None and frame.state is FrameState.READ:
            if not want_write:
                self._local_fill(frame, pid, False, on_done)  # arc 1
            else:
                self._start_upgrade(frame, pid, on_done, txn)  # arc 2
            return

        # No usable frame (absent or INV): fetch from the home (arc 5).
        self._start_fetch(pid, vpn, want_write, on_done, frame, txn)

    def _local_fill(
        self,
        frame: PageFrame,
        pid: int,
        want_write: bool,
        on_done: Callable[[], None],
    ) -> None:
        """Copy the mapping into the TLB (the 1037-cycle "TLB Fill")."""
        ctx = self.ctx
        mode = MapMode.WRITE if want_write else MapMode.READ
        ctx.tlbs[pid].fill(frame.vpn, mode)
        frame.tlb_dir.add(pid)
        if want_write:
            ctx.duqs[pid].add(frame.vpn)
            frame.post_snapshot_writes = True
        ctx.stats["tlb_fill_local"] += 1
        ctx.sim.schedule(ctx.costs.map_fill, on_done)

    def _start_upgrade(
        self, frame: PageFrame, pid: int, on_done: Callable[[], None], txn: int
    ) -> None:
        """Arc 2: request read->write privilege upgrade from the Remote
        Client that owns this SSMP's copy."""
        ctx = self.ctx
        frame.lock_held = True
        ctx.stats["upgrades"] += 1
        ctx.bus.send(
            Upgrade, frame.vpn, pid, frame.owner_pid, txn,
            at=ctx.sim.now + ctx.costs.msg_intra_ssmp,
            on_done=on_done,
        )

    def _start_fetch(
        self,
        pid: int,
        vpn: int,
        want_write: bool,
        on_done: Callable[[], None],
        frame: PageFrame | None,
        txn: int,
    ) -> None:
        """Arc 5: enter BUSY and request the page from the home Server."""
        ctx = self.ctx
        cluster = pid // ctx.cluster_size
        home_pid = ctx.aspace.home_pids[vpn]
        home_cluster = home_pid // ctx.cluster_size
        aliases_home = cluster == home_cluster
        owner = home_pid if aliases_home else pid  # first-touch placement
        if frame is None:
            frame = PageFrame(vpn=vpn, cluster=cluster, owner_pid=owner)
            ctx.frames[cluster][vpn] = frame
        else:
            frame.owner_pid = owner  # re-placed on refetch
        frame.aliases_home = aliases_home
        frame.state = FrameState.BUSY
        frame.lock_held = True
        frame.waiters.append(Waiter(pid, want_write, on_done, txn))
        request = Wreq if want_write else Rreq
        ctx.stats["write_requests" if want_write else "read_requests"] += 1
        ctx.bus.send(
            request, vpn, pid, home_pid, txn,
            at=ctx.sim.now + ctx.msg_cost(cluster, home_cluster),
        )

    # ------------------------------------------------------------------
    # data arrival (RDAT / WDAT, arcs 6-7)
    # ------------------------------------------------------------------

    @handles(Rdat, Wdat)
    def on_data(self, msg: Rdat | Wdat) -> None:
        """RDAT/WDAT arrived: install the frame and drain waiters."""
        ctx = self.ctx
        vpn, cluster, req_pid = msg.vpn, msg.dst_cluster, msg.dst_pid
        frame = ctx.frames[cluster][vpn]
        assert frame.state is FrameState.BUSY, (
            f"data grant for vpn {vpn} in cluster {cluster} but frame is {frame.state}"
        )
        # the grant comes from the page's home
        work = ctx.msg_cost(cluster, msg.src_cluster)
        frame.data = msg.data
        if msg.write_grant:
            frame.state = FrameState.WRITE
            frame.post_snapshot_writes = True
            if not frame.aliases_home:
                frame.twin = msg.data.copy()
                work += ctx.costs.make_twin(ctx.words_per_page)
        else:
            frame.state = FrameState.READ
        completion = ctx.machine.occupy(req_pid, work)
        ctx.sim.schedule_at(completion, self.release_mapping_lock, frame)

    @handles(UpAck)
    def on_up_ack(self, msg: UpAck) -> None:
        """UP_ACK arrived: complete the upgrading fault (arc 7)."""
        ctx = self.ctx
        vpn, cluster, pid = msg.vpn, msg.dst_cluster, msg.dst_pid
        frame = ctx.frames[cluster][vpn]
        assert frame.state is FrameState.WRITE
        completion = ctx.machine.occupy(pid, ctx.costs.msg_intra_ssmp)
        ctx.tlbs[pid].fill(vpn, MapMode.WRITE)
        frame.tlb_dir.add(pid)
        ctx.duqs[pid].add(vpn)
        frame.post_snapshot_writes = True
        ctx.sim.schedule_at(completion + ctx.costs.map_fill, msg.on_done)
        ctx.sim.schedule_at(completion, self.release_mapping_lock, frame)

    def release_mapping_lock(self, frame: PageFrame) -> None:
        """Release the page-table lock; run queued work in FIFO-ish order.

        Waiting faulters are serviced first (they re-enter ``_service``
        and may re-acquire the lock, e.g. for an upgrade); any queued
        invalidation then proceeds once the lock is free again.
        """
        ctx = self.ctx
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
        if not frame.lock_held and frame.queued_invals:
            kind, txn = frame.queued_invals.pop(0)
            ctx.remote.start_inval(frame, kind, txn)

    # ------------------------------------------------------------------
    # release operation (DUQ drain, arcs 8-10)
    # ------------------------------------------------------------------

    def release(self, pid: int, on_done: Callable[[], None], txn: int) -> None:
        """Release body (run by ``Protocol.release``): push every dirty
        page home, serially.

        Pages whose DUQ entry was stolen by an invalidation round (arc
        12) are re-queued as data-less "joins": their writes travelled
        with that round's diff, but this release may not complete until
        the round has — otherwise another processor could acquire the
        protecting lock and read a copy the round has not invalidated
        yet.  A join whose round already finished costs one immediately
        acknowledged REL.
        """
        ctx = self.ctx
        duq = ctx.duqs[pid]
        stolen = ctx.stolen[pid]
        if stolen:
            for vpn in sorted(stolen):
                duq.add(vpn)
            stolen.clear()
            ctx.stats["stolen_joins"] += 1
        if not duq:
            on_done()
            return
        ctx.stats["releases"] += 1
        self._release_next(pid, on_done, txn)

    def _release_next(self, pid: int, on_done: Callable[[], None], txn: int) -> None:
        ctx = self.ctx
        duq = ctx.duqs[pid]
        if not duq:
            ctx.sim.schedule(ctx.costs.release_resume, on_done)
            return
        vpn = duq.pop_head()
        home_pid = ctx.aspace.home_pids[vpn]
        send_cost = ctx.msg_cost(
            pid // ctx.cluster_size, home_pid // ctx.cluster_size
        )
        ctx.stats["rel_pages"] += 1
        ctx.bus.send(
            Rel, vpn, pid, home_pid, txn,
            at=ctx.sim.now + ctx.costs.release_entry + send_cost,
            on_done=on_done,
        )

    @handles(Rack)
    def on_rack(self, msg: Rack) -> None:
        """RACK arrived: continue with the next DUQ entry (arcs 9-10)."""
        ctx = self.ctx
        completion = ctx.machine.occupy(msg.dst_pid, ctx.costs.msg_inter_ssmp)
        ctx.sim.schedule_at(
            completion, self._release_next, msg.dst_pid, msg.on_done, msg.txn
        )
