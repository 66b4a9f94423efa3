"""The Server engine (Figure 4, right).

Runs on the processor whose memory is home for a page.  It grants
replication requests (``RREQ``/``WREQ`` -> ``RDAT``/``WDAT``, arcs 17-19),
tracks the directories of read and write copies, and orchestrates eager
release operations (arcs 20-23): invalidate every replica, collect
acknowledgements/diffs, merge them into the home copy, and only then
acknowledge the releaser and serve queued requests.

Single-writer optimization (section 3.1.1): when the releasing SSMP holds
the only write copy, the Server sends ``1WINV`` instead of ``INV``; the
writer returns the whole page (``1WDATA``) and keeps its copy cached with
write privilege, so the Server retains it in ``write_dir`` afterwards.

Robustness rules for races (documented in DESIGN.md section 3):

* A ``REL`` arriving during ``REL_IN_PROG`` queues on ``rl`` and is
  acknowledged when the in-flight release completes — the releaser's diff
  was already collected by that round's invalidations.
* Invalidation targets are the directories plus the releasing cluster;
  clusters whose frame is mid-fetch (``BUSY``) are only targeted when the
  Server has already sent their data grant (cluster present in a
  directory), which guarantees the queued invalidation will eventually
  run and prevents request/invalidate deadlock.
* A ``WNOTIFY`` racing a release is queued and applied afterwards, and
  ignored if the round invalidated the upgrading cluster meanwhile.

All traffic flows as typed messages over the protocol bus; inbound arcs
are the ``@handles``-marked methods.  A release round's fan-out carries
the transaction id of the ``REL`` that started it; queued releasers and
requesters keep their own messages (and so their own transaction ids)
until the round completes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bus import handles
from repro.core.messages import (
    Ack,
    Diff,
    Inv,
    OneWdata,
    OneWinv,
    Rack,
    Rdat,
    Rel,
    RetainedUnlock,
    Rreq,
    Wdat,
    Wnotify,
    Wreq,
)
from repro.core.page import FrameState, HomePage, ServerState, apply_diff

if TYPE_CHECKING:
    from repro.protocols.mgs.protocol import MGSProtocol

__all__ = ["Server"]


class Server:
    """Server-side page replication and release engine."""

    def __init__(self, ctx: "MGSProtocol") -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    # replication requests (arcs 17-19)
    # ------------------------------------------------------------------

    @handles(Rreq, Wreq)
    def on_request(self, msg: Rreq | Wreq) -> None:
        ctx = self.ctx
        home = ctx.home(msg.vpn)
        dispatch = ctx.msg_cost(msg.src_cluster, msg.dst_cluster)
        if home.state is ServerState.REL_IN_PROG:
            ctx.machine.occupy(home.home_pid, dispatch)
            queue = home.wr if msg.want_write else home.rd
            queue.append(msg)
            ctx.stats["requests_queued_on_release"] += 1
            return
        self._grant(home, msg, dispatch)

    def _grant(self, home: HomePage, req: Rreq | Wreq, dispatch: int) -> None:
        """Send page data to a requester and update the directories."""
        ctx = self.ctx
        costs = ctx.costs
        req_cluster = req.src_cluster
        home_cluster = home.home_pid // ctx.cluster_size
        want_write = req.want_write
        work = dispatch + costs.server_read + costs.msg_send
        if want_write:
            work += costs.server_write_extra
        if req_cluster == home_cluster:
            # The home SSMP maps the physical home copy directly: no page
            # cleaning, no DMA, and the frame will alias home data.
            payload = home.data
        else:
            work += ctx.ship_page(home_cluster, home.vpn)
            payload = home.data.copy()
        if want_write:
            home.write_dir.add(req_cluster)
            home.state = ServerState.WRITE
        else:
            home.read_dir.add(req_cluster)
        completion = ctx.machine.occupy(home.home_pid, work)
        ctx.bus.send(
            Wdat if want_write else Rdat, home.vpn, home.home_pid,
            req.src_pid, req.txn, at=completion, data=payload,
        )

    @handles(Wnotify)
    def on_wnotify(self, msg: Wnotify) -> None:
        """WNOTIFY: a read copy was upgraded to write (arc 18)."""
        ctx = self.ctx
        home = ctx.home(msg.vpn)
        ctx.machine.occupy(
            home.home_pid, ctx.msg_cost(msg.src_cluster, msg.dst_cluster)
        )
        if home.state is ServerState.REL_IN_PROG:
            home.pending_wnotify.append(msg.src_cluster)
            return
        self._apply_wnotify(home, msg.src_cluster)

    def _apply_wnotify(self, home: HomePage, cluster: int) -> None:
        home.read_dir.discard(cluster)
        home.write_dir.add(cluster)
        if home.state is ServerState.READ:
            home.state = ServerState.WRITE

    # ------------------------------------------------------------------
    # release operations (arcs 20-23)
    # ------------------------------------------------------------------

    @handles(Rel)
    def on_rel(self, msg: Rel) -> None:
        ctx = self.ctx
        vpn, rel_cluster, rel_pid = msg.vpn, msg.src_cluster, msg.src_pid
        home = ctx.home(vpn)
        dispatch = ctx.msg_cost(rel_cluster, msg.dst_cluster)
        if home.state is ServerState.REL_IN_PROG:
            ctx.machine.occupy(home.home_pid, dispatch)
            frame = ctx.frame(rel_cluster, vpn)
            if (
                frame is not None
                and frame.state is FrameState.WRITE
                and frame.post_snapshot_writes
            ):
                # The releaser's copy holds writes newer than the round's
                # data snapshot (possible only for retained or aliased
                # write copies): coalescing would acknowledge a release
                # whose data never reached home.  Re-play it as a fresh
                # round once the current one completes.
                home.pending_rels.append(msg)
                ctx.stats["releases_deferred"] += 1
                return
            # Arc 22: queue the releaser; the in-flight round collects its
            # diff, so a single completion satisfies everyone.
            home.rl.append(msg)
            ctx.stats["releases_coalesced"] += 1
            return

        frames = ctx.frames
        rel_frame = frames[rel_cluster].get(vpn)
        if rel_frame is None or rel_frame.state is FrameState.INVALID:
            # A "join" release: the releaser's copy was already
            # invalidated (its diff collected and merged by the round
            # that did it, which has completed — otherwise we would be
            # in REL_IN_PROG above).  The home is consistent with the
            # releaser's writes; acknowledge without a new round.
            completion = ctx.machine.occupy(
                home.home_pid, dispatch + ctx.costs.msg_send
            )
            ctx.stats["joins_acked"] += 1
            self._send_rack(msg, at=completion)
            return

        directories = home.read_dir | home.write_dir
        candidates = directories | {rel_cluster}
        live: list[int] = []
        for cluster in sorted(candidates):
            frame = frames[cluster].get(vpn)
            if frame is None or frame.state is FrameState.INVALID:
                continue
            if frame.state is FrameState.BUSY and cluster not in directories:
                # Its data grant has not been sent yet (request queued or
                # in flight): nothing to invalidate, and targeting it
                # would deadlock against its pending fetch.
                continue
            live.append(cluster)

        single_writer = (
            ctx.options.single_writer_opt
            and home.write_dir == {rel_cluster}
            and not home.pending_wnotify
            and rel_cluster in live
            # No other replica may hold (or be acquiring) write
            # privilege: an upgrade whose WNOTIFY is still in flight
            # would make the retained copy stale.
            and not any(
                c != rel_cluster
                and (f := frames[c].get(vpn)) is not None
                and (f.state is FrameState.WRITE or f.lock_held)
                for c in live
            )
        )
        home.state = ServerState.REL_IN_PROG
        home.rl = [msg]
        home.rd = []
        home.wr = []
        home.count = len(live)
        home.single_writer = rel_cluster if single_writer else None
        home.round_txn = msg.txn
        ctx.stats["release_rounds"] += 1

        work = dispatch + ctx.costs.server_release + ctx.costs.msg_send * len(live)
        completion = ctx.machine.occupy(home.home_pid, work)
        if not live:
            ctx.sim.schedule_at(completion, self._complete_release, home)
            return
        for cluster in live:
            frame = frames[cluster].get(vpn)
            inval = OneWinv if (single_writer and cluster == rel_cluster) else Inv
            ctx.bus.send(
                inval, vpn, home.home_pid, frame.owner_pid, msg.txn,
                at=completion,
            )

    def _send_rack(self, rel: Rel, at: int | None) -> None:
        """Acknowledge one releaser, echoing its transaction id."""
        self.ctx.bus.send(
            Rack, rel.vpn, rel.dst_pid, rel.src_pid, rel.txn, at,
            on_done=rel.on_done,
        )

    @handles(Ack, Diff, OneWdata)
    def on_inval_response(self, msg: Ack | Diff | OneWdata) -> None:
        """ACK / DIFF / 1WDATA from a Remote Client (arcs 22-23)."""
        ctx = self.ctx
        home = ctx.home(msg.vpn)
        assert home.state is ServerState.REL_IN_PROG
        work = ctx.msg_cost(msg.src_cluster, msg.dst_cluster)
        if isinstance(msg, Diff):
            apply_diff(home.data, msg.indices, msg.values)
            work += ctx.costs.apply_fixed + len(msg.indices) * ctx.costs.apply_per_word
            ctx.stats["diffs_merged"] += 1
        elif isinstance(msg, OneWdata):
            apply_diff(home.data, msg.indices, msg.values)
            work += ctx.words_per_page * ctx.costs.apply_full_per_word
            ctx.stats["full_pages_merged"] += 1
        foreign_writer = isinstance(msg, Diff) or (isinstance(msg, Ack) and msg.dirty)
        if foreign_writer and home.single_writer is not None:
            # A cluster the server believed was a reader contributed
            # writes — either a diff (it upgraded while its WNOTIFY raced
            # this release) or direct home-copy writes through the home
            # cluster's alias: the "single writer"'s retained copy is now
            # stale and must be recalled before the round completes.
            home.round_foreign_diff = True
        completion = ctx.machine.occupy(home.home_pid, work)
        home.count -= 1
        assert home.count >= 0
        if home.count == 0:
            ctx.sim.schedule_at(completion, self._complete_release, home)

    def _complete_release(self, home: HomePage) -> None:
        """Arc 23: home is consistent; wake releasers and serve queues."""
        ctx = self.ctx
        if home.single_writer is not None and home.round_foreign_diff:
            # A foreign writer surfaced during what started as a
            # single-writer round: recall the retained copy before
            # completing, otherwise it would serve stale data.
            cluster = home.single_writer
            home.single_writer = None
            home.round_foreign_diff = False
            frame = ctx.frame(cluster, home.vpn)
            if frame is not None and frame.state is not FrameState.INVALID:
                home.count = 1
                completion = ctx.machine.occupy(home.home_pid, ctx.costs.msg_send)
                ctx.stats["one_writer_recalls"] += 1
                ctx.bus.send(
                    Inv, home.vpn, home.home_pid, frame.owner_pid,
                    home.round_txn, at=completion, recall=True,
                )
                return
        home.round_foreign_diff = False
        home.read_dir = set()
        home.write_dir = set()
        retained = home.single_writer
        if retained is not None:
            home.write_dir.add(retained)
        home.single_writer = None
        home.state = ServerState.WRITE if home.write_dir else ServerState.READ
        if retained is not None:
            # Wake the retained copy: its mapping lock was held through
            # the round so it could not serve stale data mid-merge.
            frame = ctx.frame(retained, home.vpn)
            if frame is not None:
                ctx.bus.send(
                    RetainedUnlock, home.vpn, home.home_pid, frame.owner_pid,
                    home.round_txn,
                )

        releasers = home.rl
        reads = home.rd
        writes = home.wr
        notifies = home.pending_wnotify
        home.rl, home.rd, home.wr, home.pending_wnotify = [], [], [], []
        home.round_txn = -1

        send_work = ctx.costs.msg_send * max(1, len(releasers))
        completion = ctx.machine.occupy(home.home_pid, send_work)
        for rel in releasers:
            self._send_rack(rel, at=completion)
        for cluster in notifies:
            frame = ctx.frame(cluster, home.vpn)
            if frame is not None and frame.state is FrameState.WRITE:
                self._apply_wnotify(home, cluster)
        for req in reads + writes:
            self._grant(home, req, 0)
        if home.pending_rels:
            # Releases covering post-snapshot writes start a new round
            # (the first re-entry flips the state back to REL_IN_PROG;
            # the rest coalesce into it or defer again).
            pending = home.pending_rels
            home.pending_rels = []
            for rel in pending:
                self.on_rel(rel)
