"""Invariant-sanitizer rules for the SC single-writer pages engine."""

from __future__ import annotations

from repro.core.engine import ArcRules
from repro.core.page import FrameState, ServerState

__all__ = ["SCPagesArcRules"]


class SCPagesArcRules(ArcRules):
    """Legal-arc catalogue for ``protocols/sc_pages``."""

    # ------------------------------------------------------------------
    # per-message pre-state checks
    # ------------------------------------------------------------------

    def _check_request(self, msg) -> None:
        frame = self.protocol.frames[msg.src_cluster].get(msg.vpn)
        if frame is None or not frame.lock_held:
            self._fail(
                "sc-request",
                f"{msg.label} from cluster {msg.src_cluster} with no "
                "fault holding the frame lock",
                msg,
            )

    def _check_inv(self, msg) -> None:
        home = self.protocol.homes.get(msg.vpn)
        if home is None or home.state is not ServerState.REL_IN_PROG:
            self._fail(
                "sc-inv",
                f"SC_INV for vpn {msg.vpn} outside a coherence round",
                msg,
            )
        elif home.round_txn != msg.txn:
            self._fail(
                "sc-inv",
                f"SC_INV carries txn {msg.txn} but the round is "
                f"txn {home.round_txn}",
                msg,
            )

    def _check_grant(self, msg) -> None:
        frame = self.protocol.frames[msg.dst_cluster].get(msg.vpn)
        if frame is None or not frame.lock_held:
            self._fail(
                "sc-grant",
                f"{msg.label} for vpn {msg.vpn} at cluster "
                f"{msg.dst_cluster} with no request outstanding",
                msg,
            )

    def _check_down(self, msg) -> None:
        # Legal at a WRITE frame, or at a frame whose write grant is
        # still in flight (lock held) — after a home migration the new
        # home's revocation can outrun the old home's queued grant, and
        # the engine parks it until the grant lands.
        frame = self.protocol.frames[msg.dst_cluster].get(msg.vpn)
        if frame is None or (
            frame.state is not FrameState.WRITE and not frame.lock_held
        ):
            state = "absent" if frame is None else frame.state.value
            self._fail(
                "sc-down",
                f"SC_DOWN for vpn {msg.vpn} but cluster {msg.dst_cluster} "
                f"is {state} with no grant in flight, not the exclusive "
                "writer",
                msg,
            )

    def _check_ack(self, msg) -> None:
        home = self.protocol.homes.get(msg.vpn)
        if home is None or home.state is not ServerState.REL_IN_PROG:
            self._fail(
                "sc-round",
                f"{msg.label} for vpn {msg.vpn} without a coherence round "
                "open",
                msg,
            )
        elif home.count <= 0:
            self._fail(
                "sc-round",
                f"{msg.label} for vpn {msg.vpn} but the round expects no "
                "more acknowledgements",
                msg,
            )

    _CHECKS = {
        "SC_RREQ": _check_request,
        "SC_WREQ": _check_request,
        "SC_DATA": _check_grant,
        "SC_WGRANT": _check_grant,
        "SC_DOWN": _check_down,
        "SC_INV": _check_inv,
        "SC_WB": _check_ack,
        "SC_IACK": _check_ack,
    }

    # ------------------------------------------------------------------
    # structural checks
    # ------------------------------------------------------------------

    def check_page(self, vpn: int) -> None:
        p = self.protocol
        home = p.homes.get(vpn)
        if home is None:
            return
        if len(home.write_dir) > 1:
            self.s.fail(
                "sc-single-writer",
                f"vpn {vpn} has {len(home.write_dir)} exclusive writers: "
                f"{sorted(home.write_dir)}",
                vpn=vpn,
            )
        overlap = home.write_dir & home.read_dir
        if overlap:
            self.s.fail(
                "sc-single-writer",
                f"vpn {vpn} lists clusters {sorted(overlap)} as both "
                "reader and exclusive writer",
                vpn=vpn,
            )

    def check_quiescent(self) -> None:
        p = self.protocol
        for vpn, home in sorted(p.homes.items()):
            if home.state is ServerState.REL_IN_PROG:
                self.s.fail(
                    "quiesce-sc-round",
                    f"vpn {vpn} still in a coherence round at quiescence",
                    vpn=vpn,
                )
            if home.rd or home.wr:
                self.s.fail(
                    "quiesce-sc-queue",
                    f"vpn {vpn} has queued requests at quiescence "
                    f"(rd={len(home.rd)} wr={len(home.wr)})",
                    vpn=vpn,
                )
        if p.pending:
            self.s.fail(
                "quiesce-sc-pending",
                f"requests still being serviced at quiescence: "
                f"vpns {sorted(p.pending)}",
            )
        for cluster, frames in enumerate(p.frames):
            for vpn, frame in sorted(frames.items()):
                if frame.state is FrameState.BUSY or frame.lock_held:
                    self.s.fail(
                        "quiesce-sc-busy",
                        f"cluster {cluster} still fetching vpn {vpn} at "
                        "quiescence",
                        vpn=vpn,
                    )
                if frame.queued_invals:
                    self.s.fail(
                        "quiesce-sc-revocation",
                        f"cluster {cluster} never drained "
                        f"{len(frame.queued_invals)} deferred revocations "
                        f"for vpn {vpn}",
                        vpn=vpn,
                    )

    # ------------------------------------------------------------------
    # queue-aware whole-state rules (explorer only)
    # ------------------------------------------------------------------

    def check_state(self, inflight) -> None:
        """An open coherence round must still be able to make progress.

        With ``count`` acknowledgements outstanding, either a round
        message is in flight for the page or a revocation is parked on a
        frame (deferred behind an access in progress); neither means the
        round is lost forever.
        """
        super().check_state(inflight)
        p = self.protocol
        for vpn, home in sorted(p.homes.items()):
            if home.state is not ServerState.REL_IN_PROG or home.count <= 0:
                continue
            if any(
                m.vpn == vpn
                and m.label in ("SC_DOWN", "SC_INV", "SC_WB", "SC_IACK")
                for m in inflight
            ):
                continue
            if any(
                (frame := frames.get(vpn)) is not None
                and (frame.queued_invals or frame.pinv_count > 0)
                for frames in p.frames
            ):
                continue
            self.s.fail(
                "sc-round-stuck",
                f"vpn {vpn} round expects {home.count} more "
                "acknowledgements with no round message in flight and no "
                "revocation parked",
                vpn=vpn,
            )
