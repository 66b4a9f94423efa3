"""MGS arc rules for the protocol invariant sanitizer.

The generic :class:`~repro.analysis.invariants.InvariantSanitizer` owns
the observation plumbing (bus taps, transaction traces, violation
raising); everything *semantic* — which message arcs are legal against
which page state, per docs/PROTOCOL.md — is MGS-specific and lives here,
behind :meth:`MGSProtocol.arc_rules`.  See docs/ANALYSIS.md for the
invariant catalogue with arc-by-arc cross-references.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.engine import ArcRules
from repro.core.page import FrameState, ServerState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.page import HomePage, PageFrame

__all__ = ["MGSArcRules"]


class MGSArcRules(ArcRules):
    """Validates MGS protocol transitions as the bus delivers them."""

    def __init__(self, sanitizer) -> None:
        super().__init__(sanitizer)
        self.bus = sanitizer.bus
        #: RELs awaiting their RACK, keyed ``(txn, vpn)``
        self._pending_rels: dict[tuple[int, int], str] = {}

    # ------------------------------------------------------------------
    # frame lookup
    # ------------------------------------------------------------------

    def _frame(self, cluster: int, vpn: int) -> "PageFrame | None":
        return self.protocol.frames[cluster].get(vpn)

    def _need_frame(self, cluster: int, vpn: int, label: str, txn: int):
        frame = self._frame(cluster, vpn)
        if frame is None:
            self._fail(
                "frame-exists",
                f"{label} targets cluster {cluster} which has no frame",
                vpn=vpn,
                txn=txn,
            )
        return frame

    # ------------------------------------------------------------------
    # per-message pre-state checks (arcs per docs/PROTOCOL.md)
    # ------------------------------------------------------------------

    def _check_request(self, msg) -> None:
        """RREQ/WREQ (arc 5): requester must be mid-fault, frame BUSY."""
        frame = self._need_frame(msg.src_cluster, msg.vpn, msg.label, msg.txn)
        if frame.state is not FrameState.BUSY or not frame.lock_held:
            self._fail(
                "busy-request",
                f"{msg.label} from cluster {msg.src_cluster} but frame is "
                f"{frame.state.value} (lock={frame.lock_held})",
                msg,
            )
        if not any(w.txn == msg.txn for w in frame.waiters):
            self._fail(
                "busy-waiter",
                f"{msg.label} carries txn {msg.txn} but no waiter entered "
                "with that transaction",
                msg,
            )

    def _check_grant(self, msg) -> None:
        """RDAT/WDAT (arc 6): grant lands on a BUSY, locked frame."""
        frame = self._need_frame(msg.dst_cluster, msg.vpn, msg.label, msg.txn)
        if frame.state is not FrameState.BUSY:
            self._fail(
                "grant-busy",
                f"{msg.label} but frame is {frame.state.value}",
                msg,
            )
        if not frame.lock_held or not frame.waiters:
            self._fail(
                "grant-lock",
                f"{msg.label} but mapping lock free or no waiters",
                msg,
            )
        if msg.txn not in self.bus.open_txns:
            self._fail(
                "grant-txn",
                f"{msg.label} carries txn {msg.txn} which is not in flight",
                msg,
            )

    def _check_upgrade(self, msg) -> None:
        """UPGRADE (arc 2): only a locked READ frame may upgrade."""
        frame = self._need_frame(msg.src_cluster, msg.vpn, msg.label, msg.txn)
        if frame.state is not FrameState.READ or not frame.lock_held:
            self._fail(
                "upgrade-read",
                f"UPGRADE but frame is {frame.state.value} "
                f"(lock={frame.lock_held})",
                msg,
            )

    def _check_up_ack(self, msg) -> None:
        """UP_ACK (arc 7): privilege was raised before the ack."""
        frame = self._need_frame(msg.dst_cluster, msg.vpn, msg.label, msg.txn)
        if frame.state is not FrameState.WRITE or not frame.lock_held:
            self._fail(
                "upack-write",
                f"UP_ACK but frame is {frame.state.value} "
                f"(lock={frame.lock_held})",
                msg,
            )

    def _check_pinv(self, msg) -> None:
        """PINV (arcs 11-12): shootdown only during an invalidation."""
        frame = self._need_frame(msg.dst_cluster, msg.vpn, msg.label, msg.txn)
        if frame.inval_kind is None or not frame.lock_held:
            self._fail(
                "pinv-inval",
                "PINV outside an invalidation "
                f"(kind={frame.inval_kind}, lock={frame.lock_held})",
                msg,
            )
        if frame.pinv_count < 1:
            self._fail(
                "pinv-count",
                f"PINV with pinv_count={frame.pinv_count}",
                msg,
            )
        if msg.dst_pid not in frame.tlb_dir:
            self._fail(
                "pinv-target",
                f"PINV for proc {msg.dst_pid} which is not in tlb_dir "
                f"{sorted(frame.tlb_dir)}",
                msg,
            )

    def _check_pinv_ack(self, msg) -> None:
        """PINV_ACK (arcs 15-16): exactly matches outstanding shootdowns."""
        frame = self._need_frame(msg.dst_cluster, msg.vpn, msg.label, msg.txn)
        if frame.inval_kind is None or frame.pinv_count < 1:
            self._fail(
                "pinvack-count",
                "PINV_ACK with no shootdown outstanding "
                f"(kind={frame.inval_kind}, count={frame.pinv_count})",
                msg,
            )

    def _check_inv(self, msg) -> None:
        """INV/1WINV (arc 14): sent only by an in-flight release round."""
        home = self.protocol.homes.get(msg.vpn)
        if home is None or home.state is not ServerState.REL_IN_PROG:
            self._fail(
                "inv-round",
                f"{msg.label} outside a release round",
                msg,
            )
        if home.round_txn != msg.txn:
            self._fail(
                "inv-txn",
                f"{msg.label} carries txn {msg.txn} but the round is "
                f"txn {home.round_txn}",
                msg,
            )
        if home.count < 1:
            self._fail(
                "inv-count",
                f"{msg.label} with round count={home.count}",
                msg,
            )
        frame = self._need_frame(msg.dst_cluster, msg.vpn, msg.label, msg.txn)
        if getattr(msg, "recall", False):
            # Recall of a retained copy: the single-writer invalidation
            # just finished, so the mapping lock is still held and no
            # invalidation is in progress (Server._complete_release).
            if not frame.lock_held or frame.inval_kind is not None:
                self._fail(
                    "recall-state",
                    "recall INV but retained frame has lock="
                    f"{frame.lock_held}, kind={frame.inval_kind}",
                    msg,
                )

    def _check_inval_response(self, msg) -> None:
        """ACK/DIFF/1WDATA (arcs 22-23): answer the round in flight."""
        home = self.protocol.homes.get(msg.vpn)
        if home is None or home.state is not ServerState.REL_IN_PROG:
            self._fail(
                "resp-round",
                f"{msg.label} but the home is not in REL_IN_PROG",
                msg,
            )
        if home.count < 1:
            self._fail(
                "resp-count",
                f"{msg.label} with round count={home.count}",
                msg,
            )
        if home.round_txn != msg.txn:
            self._fail(
                "resp-txn",
                f"{msg.label} carries txn {msg.txn} but the round is "
                f"txn {home.round_txn}",
                msg,
            )

    def _check_rel(self, msg) -> None:
        """REL (arc 8): register it; exactly one RACK must answer."""
        if msg.txn not in self.bus.open_txns:
            self._fail(
                "rel-txn",
                f"REL carries txn {msg.txn} which is not in flight",
                msg,
            )
        key = (msg.txn, msg.vpn)
        if key in self._pending_rels:
            self._fail(
                "rel-duplicate",
                f"second REL for vpn {msg.vpn} within txn {msg.txn}",
                msg,
            )
        self._pending_rels[key] = f"REL from p{msg.src_pid}"

    def _check_rack(self, msg) -> None:
        """RACK (arcs 9-10): answers exactly one outstanding REL."""
        key = (msg.txn, msg.vpn)
        if self._pending_rels.pop(key, None) is None:
            self._fail(
                "rack-unmatched",
                f"RACK for vpn {msg.vpn} txn {msg.txn} matches no "
                "outstanding REL (duplicate or spurious acknowledgement)",
                msg,
            )

    def _check_wnotify(self, msg) -> None:
        """WNOTIFY (arc 18): an upgrade notice from a granted copy.

        Deliberately weak: between send and delivery a release round may
        invalidate or recall the upgrading cluster's copy, so the only
        always-sound pre-state is that the cluster has a frame at all
        (a notice from a never-granted cluster is spurious).
        """
        frame = self._frame(msg.src_cluster, msg.vpn)
        if frame is None:
            self._fail(
                "wnotify-frame",
                f"WNOTIFY from cluster {msg.src_cluster} which has no frame",
                msg,
            )
        if self.protocol.homes.get(msg.vpn) is None:
            self._fail(
                "wnotify-home",
                f"WNOTIFY for vpn {msg.vpn} which has no home page",
                msg,
            )

    def _check_retained_unlock(self, msg) -> None:
        """1W_UNLOCK: the retained copy is consistent and still locked."""
        frame = self._need_frame(msg.dst_cluster, msg.vpn, msg.label, msg.txn)
        if frame.state is not FrameState.WRITE or not frame.lock_held:
            self._fail(
                "retain-state",
                f"1W_UNLOCK but retained frame is {frame.state.value} "
                f"(lock={frame.lock_held})",
                msg,
            )
        home = self.protocol.homes.get(msg.vpn)
        if home is None or msg.dst_cluster not in home.write_dir:
            self._fail(
                "retain-dir",
                f"1W_UNLOCK but cluster {msg.dst_cluster} is not in "
                "write_dir (retention must re-register the copy)",
                msg,
            )

    _CHECKS = {
        "RREQ": _check_request,
        "WREQ": _check_request,
        "RDAT": _check_grant,
        "WDAT": _check_grant,
        "UPGRADE": _check_upgrade,
        "UP_ACK": _check_up_ack,
        "PINV": _check_pinv,
        "PINV_ACK": _check_pinv_ack,
        "INV": _check_inv,
        "1WINV": _check_inv,
        "ACK": _check_inval_response,
        "DIFF": _check_inval_response,
        "1WDATA": _check_inval_response,
        "REL": _check_rel,
        "RACK": _check_rack,
        "WNOTIFY": _check_wnotify,
        "1W_UNLOCK": _check_retained_unlock,
    }

    # ------------------------------------------------------------------
    # structural checks, scoped to one page
    # ------------------------------------------------------------------

    def check_page(self, vpn: int) -> None:
        """Cross-engine state consistency for one page (cheap, per msg)."""
        if vpn < 0:
            return
        home = self.protocol.homes.get(vpn)
        if home is not None:
            self._check_home(vpn, home)
        for cluster, frames in enumerate(self.protocol.frames):
            frame = frames.get(vpn)
            if frame is not None:
                self._check_frame(vpn, cluster, frame)

    def _check_home(self, vpn: int, home: "HomePage") -> None:
        overlap = home.read_dir & home.write_dir
        if overlap:
            self._fail(
                "dir-exclusion",
                f"clusters {sorted(overlap)} in both read_dir and write_dir",
                vpn=vpn,
                txn=home.round_txn,
            )
        if home.state is ServerState.REL_IN_PROG:
            if home.count < 0:
                self._fail("round-count", f"count={home.count}", vpn=vpn,
                           txn=home.round_txn)
            if not home.rl:
                self._fail(
                    "round-releaser",
                    "REL_IN_PROG with no queued releaser",
                    vpn=vpn,
                    txn=home.round_txn,
                )
            if home.round_txn not in self.bus.open_txns:
                self._fail(
                    "round-txn",
                    f"REL_IN_PROG round txn {home.round_txn} is not an "
                    "in-flight transaction",
                    vpn=vpn,
                    txn=home.round_txn,
                )
        else:
            if home.count != 0:
                self._fail(
                    "idle-count",
                    f"count={home.count} outside a release round",
                    vpn=vpn,
                )
            if home.single_writer is not None:
                self._fail(
                    "idle-single-writer",
                    f"single_writer={home.single_writer} outside a round",
                    vpn=vpn,
                )

    def _check_frame(self, vpn: int, cluster: int, frame: "PageFrame") -> None:
        if frame.state is FrameState.BUSY:
            if not frame.lock_held or not frame.waiters:
                self._fail(
                    "busy-lock",
                    f"BUSY frame in cluster {cluster} with lock="
                    f"{frame.lock_held}, waiters={len(frame.waiters)}",
                    vpn=vpn,
                )
            for w in frame.waiters:
                if w.txn >= 0 and w.txn not in self.bus.open_txns:
                    self._fail(
                        "busy-txn",
                        f"BUSY frame waiter txn {w.txn} is not in flight",
                        vpn=vpn,
                        txn=w.txn,
                    )
        if frame.pinv_count > 0 and frame.inval_kind is None:
            self._fail(
                "shootdown-kind",
                f"pinv_count={frame.pinv_count} with no invalidation "
                "in progress",
                vpn=vpn,
            )
        if frame.inval_kind is not None:
            if not frame.lock_held:
                self._fail(
                    "inval-lock",
                    f"invalidation '{frame.inval_kind}' without the "
                    "mapping lock",
                    vpn=vpn,
                    txn=frame.inval_txn,
                )
            if frame.inval_txn not in self.bus.open_txns:
                self._fail(
                    "inval-txn",
                    f"invalidation txn {frame.inval_txn} is not in flight",
                    vpn=vpn,
                    txn=frame.inval_txn,
                )
        if frame.twin is not None and (
            frame.state is not FrameState.WRITE or frame.aliases_home
        ):
            self._fail(
                "twin-leak",
                f"twin present on a {frame.state.value} frame "
                f"(aliases_home={frame.aliases_home}) in cluster {cluster}",
                vpn=vpn,
            )
        if frame.inval_kind is None and frame.pinv_count == 0:
            # TLB dir <= mapped processors.  Mid-shootdown the PINVs drop
            # TLB entries one by one while tlb_dir is only cleared at the
            # end, so the check is gated on no invalidation in progress.
            tlbs = self.protocol.tlbs
            for pid in sorted(frame.tlb_dir):
                if self.config.cluster_of(pid) != cluster:
                    self._fail(
                        "tlbdir-cluster",
                        f"proc {pid} in tlb_dir of cluster {cluster}",
                        vpn=vpn,
                    )
                if not frame.mapped or tlbs[pid].lookup(vpn) is None:
                    self._fail(
                        "tlbdir-mapped",
                        f"proc {pid} in tlb_dir but holds no TLB mapping "
                        f"(frame state {frame.state.value})",
                        vpn=vpn,
                    )

    # ------------------------------------------------------------------
    # quiescence sweep
    # ------------------------------------------------------------------

    def check_quiescent(self) -> None:
        """Full-state leak check once the simulation has drained."""
        protocol = self.protocol
        if self._pending_rels:
            (txn, vpn), who = sorted(self._pending_rels.items())[0]
            self._fail(
                "quiesce-rel",
                f"{who} (txn {txn}) was never answered by a RACK",
                vpn=vpn,
                txn=txn,
            )
        for vpn in sorted(protocol.homes):
            home = protocol.homes[vpn]
            self._check_home(vpn, home)
            if home.state is ServerState.REL_IN_PROG:
                self._fail("quiesce-round", "release round never completed",
                           vpn=vpn, txn=home.round_txn)
            if home.rl or home.rd or home.wr or home.pending_wnotify:
                self._fail(
                    "quiesce-queues",
                    f"home queues not drained (rl={len(home.rl)}, "
                    f"rd={len(home.rd)}, wr={len(home.wr)}, "
                    f"wnotify={len(home.pending_wnotify)})",
                    vpn=vpn,
                )
            if home.pending_rels:
                self._fail(
                    "quiesce-deferred",
                    f"{len(home.pending_rels)} deferred releases never "
                    "replayed",
                    vpn=vpn,
                )
            for cluster in sorted(home.write_dir):
                frame = protocol.frame(cluster, vpn)
                if frame is None or frame.state not in (
                    FrameState.WRITE,
                    FrameState.BUSY,
                ):
                    self._fail(
                        "quiesce-writedir",
                        f"write_dir lists cluster {cluster} whose frame is "
                        f"{'absent' if frame is None else frame.state.value}",
                        vpn=vpn,
                    )
        for cluster, frames in enumerate(protocol.frames):
            for vpn in sorted(frames):
                frame = frames[vpn]
                self._check_frame(vpn, cluster, frame)
                if frame.lock_held:
                    self._fail("quiesce-lock",
                               f"mapping lock leaked in cluster {cluster}",
                               vpn=vpn)
                if frame.waiters or frame.queued_invals:
                    self._fail(
                        "quiesce-waiters",
                        f"{len(frame.waiters)} waiters / "
                        f"{len(frame.queued_invals)} queued invalidations "
                        "leaked",
                        vpn=vpn,
                    )
                if frame.inval_kind is not None or frame.pinv_count:
                    self._fail(
                        "quiesce-inval",
                        f"invalidation '{frame.inval_kind}' "
                        f"(pinv_count={frame.pinv_count}) never completed",
                        vpn=vpn,
                    )
                if frame.state is FrameState.WRITE:
                    home = protocol.homes.get(vpn)
                    if home is None or cluster not in home.write_dir:
                        self._fail(
                            "quiesce-refill",
                            f"write copy in cluster {cluster} missing from "
                            "write_dir (directory refill forgotten)",
                            vpn=vpn,
                        )
                    if frame.twin is None and not frame.aliases_home:
                        self._fail(
                            "quiesce-twin",
                            f"write copy in cluster {cluster} has no twin "
                            "(diffs against it would be impossible)",
                            vpn=vpn,
                        )
        for pid, duq in enumerate(protocol.duqs):
            tlb = protocol.tlbs[pid]
            for vpn in duq.vpns():
                if not tlb.has_write(vpn):
                    self._fail(
                        "quiesce-duq",
                        f"DUQ of proc {pid} holds vpn {vpn} without a "
                        "write mapping (leaked entry)",
                        vpn=vpn,
                    )
        for pid, stolen in enumerate(protocol.stolen):
            for vpn in sorted(stolen):
                if protocol.tlbs[pid].has_write(vpn):
                    self._fail(
                        "quiesce-stolen",
                        f"stolen set of proc {pid} holds vpn {vpn} which "
                        "is still write-mapped",
                        vpn=vpn,
                    )

    # ------------------------------------------------------------------
    # queue-aware whole-state rules (explorer only)
    # ------------------------------------------------------------------

    def check_state(self, inflight) -> None:
        """Invariants over protocol state *plus* undelivered messages.

        These relate stable state to messages still in the event queue,
        so only the explorer (which snapshots between events) can
        evaluate them; each is the mid-run form of a quiescence rule,
        gated on "nothing in flight can still repair this".
        """
        super().check_state(inflight)
        protocol = self.protocol
        vpns_in_flight = {m.vpn for m in inflight}
        for cluster, frames in enumerate(protocol.frames):
            for vpn in sorted(frames):
                frame = frames[vpn]
                if (
                    frame.state is FrameState.WRITE
                    and not frame.aliases_home
                    and frame.twin is None
                ):
                    # A write copy's twin is created with the grant and
                    # only dropped when the copy itself is dropped or
                    # downgraded (atomically, within one handler), so no
                    # in-flight message can excuse its absence.
                    self._fail(
                        "state-twin",
                        f"write copy in cluster {cluster} has no twin "
                        "(diffs against it would be impossible)",
                        vpn=vpn,
                    )
                if frame.pinv_count > 0 and not any(
                    m.vpn == vpn and m.label in ("PINV", "PINV_ACK")
                    for m in inflight
                ):
                    # Shootdowns outstanding but nothing left in flight
                    # to complete them: the invalidation hangs forever.
                    self._fail(
                        "state-pinv",
                        f"cluster {cluster} counts {frame.pinv_count} "
                        "outstanding TLB shootdowns with no PINV or "
                        "PINV_ACK in flight",
                        vpn=vpn,
                    )
                if frame.state is FrameState.WRITE and not frame.lock_held:
                    home = protocol.homes.get(vpn)
                    if (
                        home is not None
                        and home.state is not ServerState.REL_IN_PROG
                        and vpn not in vpns_in_flight
                        and cluster not in home.write_dir
                    ):
                        # Nothing in flight for the page, no round open:
                        # the directory can no longer learn of this copy,
                        # so the next round will skip invalidating it.
                        self._fail(
                            "state-refill",
                            f"write copy in cluster {cluster} missing "
                            "from write_dir with nothing in flight to "
                            "register it",
                            vpn=vpn,
                        )
        for pid, duq in enumerate(protocol.duqs):
            tlb = protocol.tlbs[pid]
            for vpn in duq.vpns():
                home = protocol.homes.get(vpn)
                if (
                    not tlb.has_write(vpn)
                    and vpn not in vpns_in_flight
                    and (
                        home is None
                        or home.state is not ServerState.REL_IN_PROG
                    )
                ):
                    self._fail(
                        "state-duq",
                        f"DUQ of proc {pid} holds vpn {vpn} without a "
                        "write mapping and nothing in flight to resolve "
                        "it",
                        vpn=vpn,
                    )
