"""Invariant-sanitizer rules for the single-grain DSM engine."""

from __future__ import annotations

from repro.core.engine import ArcRules
from repro.core.page import FrameState, ServerState

__all__ = ["SWDSMArcRules"]


class SWDSMArcRules(ArcRules):
    """Legal-arc catalogue for ``protocols/swdsm``."""

    # ------------------------------------------------------------------
    # per-message pre-state checks
    # ------------------------------------------------------------------

    def _check_request(self, msg) -> None:
        frame = self.protocol.frames[msg.src_pid].get(msg.vpn)
        if frame is None or frame.state is not FrameState.BUSY:
            state = "absent" if frame is None else frame.state.value
            self._fail(
                "swdsm-request",
                f"{msg.label} from node {msg.src_pid} but its frame is "
                f"{state} (no fetch outstanding)",
                msg,
            )

    def _check_diff(self, msg) -> None:
        # The eager releaser drops its replica before the diff travels
        # (and a join comes from a stolen entry with no replica at all),
        # so a write replica still present at the sender means the diff
        # is spurious or the drop was forgotten.
        frame = self.protocol.frames[msg.src_pid].get(msg.vpn)
        if frame is not None and frame.state is FrameState.WRITE:
            self._fail(
                "swdsm-diff",
                f"S_DIFF from node {msg.src_pid} which still holds a "
                "write replica (releaser must drop before diffing)",
                msg,
            )

    def _check_data(self, msg) -> None:
        frame = self.protocol.frames[msg.dst_pid].get(msg.vpn)
        if frame is None or frame.state is not FrameState.BUSY:
            state = "absent" if frame is None else frame.state.value
            self._fail(
                "swdsm-grant",
                f"S_DATA for vpn {msg.vpn} at node {msg.dst_pid} but frame "
                f"is {state} (no fetch outstanding)",
                msg,
            )

    def _check_inv(self, msg) -> None:
        frame = self.protocol.frames[msg.dst_pid].get(msg.vpn)
        if frame is not None and frame.state is FrameState.BUSY:
            self._fail(
                "swdsm-inv-busy",
                f"S_INV overtook the data grant for vpn {msg.vpn} at node "
                f"{msg.dst_pid} (delivery order violated)",
                msg,
            )

    def _check_iack(self, msg) -> None:
        home = self.protocol.homes.get(msg.vpn)
        if home is None or home.state is not ServerState.REL_IN_PROG:
            self._fail(
                "swdsm-iack",
                f"S_IACK for vpn {msg.vpn} without a release round open",
                msg,
            )
        elif home.count <= 0:
            self._fail(
                "swdsm-iack",
                f"S_IACK for vpn {msg.vpn} but the round expects no more "
                "acknowledgements",
                msg,
            )

    def _check_rack(self, msg) -> None:
        frame = self.protocol.frames[msg.dst_pid].get(msg.vpn)
        if frame is not None and frame.state is FrameState.WRITE:
            self._fail(
                "swdsm-rack",
                f"S_RACK for vpn {msg.vpn} but node {msg.dst_pid} still "
                "holds a write replica (releaser must have dropped it)",
                msg,
            )

    _CHECKS = {
        "S_RREQ": _check_request,
        "S_WREQ": _check_request,
        "S_DATA": _check_data,
        "S_DIFF": _check_diff,
        "S_INV": _check_inv,
        "S_IACK": _check_iack,
        "S_RACK": _check_rack,
    }

    # ------------------------------------------------------------------
    # structural checks
    # ------------------------------------------------------------------

    def check_page(self, vpn: int) -> None:
        p = self.protocol
        home = p.homes.get(vpn)
        if home is None:
            return
        for pid in sorted(home.write_dir):
            frame = p.frames[pid].get(vpn)
            if frame is None:
                self.s.fail(
                    "swdsm-dir",
                    f"write_dir of vpn {vpn} lists node {pid} with no frame",
                    vpn=vpn,
                )

    def check_quiescent(self) -> None:
        p = self.protocol
        for vpn, home in sorted(p.homes.items()):
            if home.state is ServerState.REL_IN_PROG:
                self.s.fail(
                    "quiesce-swdsm-round",
                    f"vpn {vpn} still in a release round at quiescence",
                    vpn=vpn,
                )
            if home.rl or home.rd or home.wr or home.pending_rels:
                self.s.fail(
                    "quiesce-swdsm-queue",
                    f"vpn {vpn} has queued work at quiescence "
                    f"(rl={len(home.rl)} rd={len(home.rd)} wr={len(home.wr)} "
                    f"deferred={len(home.pending_rels)})",
                    vpn=vpn,
                )
        for pid, frames in enumerate(p.frames):
            for vpn, frame in sorted(frames.items()):
                if frame.state is FrameState.BUSY:
                    self.s.fail(
                        "quiesce-swdsm-busy",
                        f"node {pid} still fetching vpn {vpn} at quiescence",
                        vpn=vpn,
                    )

    # ------------------------------------------------------------------
    # queue-aware whole-state rules (explorer only)
    # ------------------------------------------------------------------

    def check_state(self, inflight) -> None:
        """An open invalidation round must have messages left to close it."""
        super().check_state(inflight)
        for vpn, home in sorted(self.protocol.homes.items()):
            if (
                home.state is ServerState.REL_IN_PROG
                and home.count > 0
                and not any(
                    m.vpn == vpn and m.label in ("S_INV", "S_IACK")
                    for m in inflight
                )
            ):
                self.s.fail(
                    "swdsm-round-stuck",
                    f"vpn {vpn} round expects {home.count} more "
                    "acknowledgements with no S_INV or S_IACK in flight",
                    vpn=vpn,
                )
