"""The Remote Client engine (Figure 4, middle).

Runs on the processor that owns an SSMP's copy of a page (the first-touch
owner).  It performs page invalidation on the client side — flushing
hardware cache lines (page cleaning), shooting down TLB entries via
``PINV``, computing Munin-style diffs for write pages — and services
privilege upgrades (arc 13).

Invalidation kinds (Table 1, arcs 14-16):

* ``read`` — page had read privilege: clean + free, reply ``ACK``.
* ``write`` — page had write privilege: diff against the twin, free,
  reply ``DIFF``.
* ``1w`` — single-writer optimization: clean, send the whole page home
  (``1WDATA``), refresh the twin, and *keep* the page cached with write
  privilege; only TLB entries are dropped.

The diff (or page snapshot) is taken after all ``PINV`` acknowledgements
arrive, so writes performed through still-valid TLB entries during the
shootdown window are never lost.  This is the simulator's analogue of the
paper's translation-critical-section rollback (section 4.2.1).

All traffic flows as typed messages over the protocol bus; inbound arcs
are the ``@handles``-marked methods.  Invalidation responses carry the
transaction id of the release round that drove them.
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
    Pinv,
    PinvAck,
    RetainedUnlock,
    UpAck,
    Upgrade,
    Wnotify,
)
from repro.core.page import FrameState, PageFrame, dirty_lines, make_diff

if TYPE_CHECKING:
    from repro.protocols.mgs.protocol import MGSProtocol

__all__ = ["RemoteClient"]


class RemoteClient:
    """Client-side invalidation and upgrade engine."""

    def __init__(self, ctx: "MGSProtocol") -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    # upgrades (arc 13)
    # ------------------------------------------------------------------

    @handles(Upgrade)
    def on_upgrade(self, msg: Upgrade) -> None:
        """UPGRADE: twin the read page and raise privilege to write."""
        ctx = self.ctx
        vpn, cluster = msg.vpn, msg.src_cluster
        frame = ctx.frames[cluster][vpn]
        assert frame.state is FrameState.READ and frame.lock_held, (
            f"upgrade of vpn {vpn} found frame in {frame.state} "
            f"(lock={frame.lock_held})"
        )
        work = ctx.costs.msg_intra_ssmp + 2 * ctx.costs.msg_send
        if not frame.aliases_home:
            work += ctx.costs.make_twin(ctx.words_per_page)
            frame.twin = frame.data.copy()
        frame.state = FrameState.WRITE
        completion = ctx.machine.occupy(frame.owner_pid, work)
        ctx.bus.send(
            UpAck, vpn, frame.owner_pid, msg.src_pid, msg.txn,
            at=completion, on_done=msg.on_done,
        )
        ctx.bus.send(
            Wnotify, vpn, frame.owner_pid, ctx.aspace.home_pids[vpn], msg.txn,
            at=completion,
        )

    # ------------------------------------------------------------------
    # invalidations (arcs 11-16)
    # ------------------------------------------------------------------

    @handles(Inv, OneWinv)
    def on_inv(self, msg: Inv | OneWinv) -> None:
        """INV or 1WINV arrived from the Server."""
        ctx = self.ctx
        frame = ctx.frames[msg.dst_cluster].get(msg.vpn)
        assert frame is not None, (
            f"INV for vpn {msg.vpn} in cluster {msg.dst_cluster} with no frame"
        )
        if isinstance(msg, Inv) and msg.recall:
            # Recall of a retained copy whose round saw foreign writes.
            # The mapping lock is still held by the just-finished
            # single-writer invalidation (see ``_inval_done``), so the
            # queue below would wait forever; take the lock over directly.
            assert frame.lock_held and frame.inval_kind is None
            frame.lock_held = False
            self.start_inval(frame, "inv", msg.txn)
            return
        if frame.lock_held:
            # Mapping lock busy (fault/upgrade in flight): queue; the
            # Local Client re-launches us when the lock is released.
            frame.queued_invals.append((msg.kind, msg.txn))
            ctx.stats["inv_lock_waits"] += 1
            return
        self.start_inval(frame, msg.kind, msg.txn)

    def start_inval(self, frame: PageFrame, kind: str, txn: int) -> None:
        """Begin the invalidation: clean/diff cost + TLB shootdown."""
        ctx = self.ctx
        costs = ctx.costs
        assert frame.inval_kind is None, "overlapping invalidations on one frame"
        frame.lock_held = True
        frame.inval_txn = txn

        lines = ctx.lines_per_page
        words = ctx.words_per_page
        dispatch = ctx.dispatch_cost(frame.cluster, frame.vpn)
        single_writer = kind == "1w" and frame.state is FrameState.WRITE
        if single_writer and not frame.aliases_home:
            work = costs.clean_page(lines) + words * costs.twin_refresh_per_word
            frame.inval_kind = "1w"
        elif frame.state is FrameState.WRITE and not frame.aliases_home:
            work = costs.make_diff(words) + costs.free_page
            frame.inval_kind = "write"
        else:
            # Read copies — and any home-cluster frame, whose writes land
            # directly in the physical home copy and need no diff.  An
            # aliased frame also needs no page cleaning here: the home
            # copy stays in place, and every outbound grant pays its own
            # cleaning cost before the DMA (Server._grant).
            if frame.aliases_home:
                clean = 0
            else:
                clean = costs.clean_page(lines)
                if ctx.options.fast_read_clean and frame.state is FrameState.READ:
                    # Future optimization of section 4.2.4: invalidation
                    # of read-only data leaves the critical path.
                    clean //= 4
            work = clean + costs.free_page
            if single_writer:
                frame.inval_kind = "1w_alias"
            elif frame.state is FrameState.WRITE and frame.aliases_home:
                # The home cluster wrote through the alias: its changes
                # are already merged, but the server must know a foreign
                # writer contributed so any single-writer retention in
                # this round gets recalled instead of going stale.
                frame.inval_kind = "alias_dirty"
            else:
                frame.inval_kind = "read"

        # Page cleaning drops this SSMP's hardware line state.
        ctx.cache.flush_page(frame.cluster, frame.vpn)
        completion = ctx.machine.occupy(frame.owner_pid, dispatch + work)

        targets = sorted(frame.tlb_dir)
        frame.pinv_count = len(targets)
        ctx.stats["invalidations"] += 1
        ctx.record_page(frame.vpn, "invalidations")
        if not targets:
            ctx.sim.schedule_at(completion, self._inval_done, frame)
            return
        ctx.stats["pinvs"] += len(targets)
        for pid in targets:
            ctx.bus.send(
                Pinv, frame.vpn, frame.owner_pid, pid, txn, at=completion
            )

    @handles(Pinv)
    def on_pinv(self, msg: Pinv) -> None:
        """PINV: drop the TLB entry and the DUQ entry (arcs 11-12)."""
        ctx = self.ctx
        pid = msg.dst_pid
        frame = ctx.frames[msg.dst_cluster][msg.vpn]
        completion = ctx.machine.occupy(pid, ctx.costs.msg_intra_ssmp)
        ctx.tlbs[pid].invalidate(frame.vpn)
        if ctx.duqs[pid].remove_if_present(frame.vpn):
            # Arc 12 stole a pending release: the round now carries this
            # processor's writes, so its next release point must not
            # complete before that round does (release semantics).  The
            # Local Client sends a data-less "join" REL for the page.
            ctx.stolen[pid].add(frame.vpn)
        ctx.bus.send(
            PinvAck, frame.vpn, pid, frame.owner_pid, msg.txn, at=completion
        )

    @handles(PinvAck)
    def on_pinv_ack(self, msg: PinvAck) -> None:
        """Collect TLB shootdown acknowledgements (arcs 15-16)."""
        ctx = self.ctx
        frame = ctx.frames[msg.dst_cluster][msg.vpn]
        completion = ctx.machine.occupy(frame.owner_pid, ctx.costs.msg_intra_ssmp)
        frame.pinv_count -= 1
        if frame.pinv_count == 0:
            ctx.sim.schedule_at(completion, self._inval_done, frame)

    def _inval_done(self, frame: PageFrame) -> None:
        """All mappings gone: snapshot data, free/keep the page, reply."""
        ctx = self.ctx
        costs = ctx.costs
        kind = frame.inval_kind
        txn = frame.inval_txn
        frame.inval_kind = None
        frame.inval_txn = -1
        frame.tlb_dir.clear()
        # The snapshot below covers every write made so far: releases of
        # those writes may coalesce into the round in flight.
        frame.post_snapshot_writes = False

        if kind == "1w":
            # The whole page travels home (full-page DMA cost), but it is
            # *applied* as a diff against the twin so that diffs merged
            # concurrently in the same release round — a reader that
            # upgraded while the round was in flight — are never
            # clobbered by the full-page install.
            indices, values = make_diff(frame.data, frame.twin)
            response, fields = OneWdata, dict(indices=indices, values=values)
            frame.twin = frame.data.copy()
            # Page stays cached with write privilege (the optimization's
            # whole point: reward sharing within the SSMP).
            send_work = costs.dma_page(ctx.lines_per_page) + costs.msg_send
            ctx.stats["one_writer_releases"] += 1
        elif kind == "write":
            indices, values = make_diff(frame.data, frame.twin)
            response, fields = Diff, dict(indices=indices, values=values)
            frame.data = None
            frame.twin = None
            frame.state = FrameState.INVALID
            lines = dirty_lines(indices, ctx.words_per_line)
            send_work = costs.dma_page(lines) + costs.msg_send
            ctx.stats["diffs_sent"] += 1
            ctx.stats["diff_words"] += len(indices)
            ctx.record_page(frame.vpn, "diff_words", len(indices))
        else:
            # "read", "alias_dirty", and "1w_alias": no data travels.
            response, fields = Ack, dict(dirty=kind == "alias_dirty")
            if kind in ("read", "alias_dirty"):
                frame.data = None
                frame.twin = None
                frame.state = FrameState.INVALID
            send_work = costs.msg_send

        completion = ctx.machine.occupy(frame.owner_pid, send_work)
        ctx.bus.send(
            response, frame.vpn, frame.owner_pid,
            ctx.aspace.home_pids[frame.vpn], txn, at=completion, **fields,
        )
        if kind in ("1w", "1w_alias"):
            # The retained copy must not serve new mappings until the
            # release round completes: the round may still merge foreign
            # contributions (making the copy stale until the recall), and
            # in the real system a freed page would force refetches to
            # queue at the server until the round's end.  Keep the
            # mapping lock held; the Server releases it at completion
            # (on_retained_unlock) or recalls the copy instead.
            return
        ctx.sim.schedule_at(completion, ctx.local.release_mapping_lock, frame)

    @handles(RetainedUnlock)
    def on_retained_unlock(self, msg: RetainedUnlock) -> None:
        """The release round completed: the retained copy is consistent
        with the home again and may serve local mappings."""
        ctx = self.ctx
        frame = ctx.frames[msg.dst_cluster][msg.vpn]
        ctx.machine.occupy(frame.owner_pid, ctx.costs.msg_intra_ssmp)
        ctx.local.release_mapping_lock(frame)
