"""Invariant-sanitizer rules for the lazy-RC (gcs) engine."""

from __future__ import annotations

from repro.core.engine import ArcRules
from repro.core.page import FrameState

__all__ = ["GCSArcRules"]


class GCSArcRules(ArcRules):
    """Legal-arc catalogue for ``protocols/gcs``."""

    # ------------------------------------------------------------------
    # per-message pre-state checks
    # ------------------------------------------------------------------

    def _check_request(self, msg) -> None:
        frame = self.protocol.frames[msg.src_cluster].get(msg.vpn)
        if frame is None or frame.state is not FrameState.BUSY:
            state = "absent" if frame is None else frame.state.value
            self._fail(
                "gcs-request",
                f"{msg.label} from cluster {msg.src_cluster} but its "
                f"frame is {state} (no fetch outstanding)",
                msg,
            )

    def _check_diff(self, msg) -> None:
        # Diffs travel only inside a release drain; the drain entry is
        # registered before the diff is posted and cleared by the G_RACK
        # that answers it.
        if msg.src_pid not in self.protocol._drain:
            self._fail(
                "gcs-diff",
                f"G_DIFF from proc {msg.src_pid} which has no release "
                "drain awaiting an acknowledgement",
                msg,
            )
        elif msg.indices is None or len(msg.indices) == 0:
            self._fail(
                "gcs-diff",
                f"empty G_DIFF for vpn {msg.vpn} (empty diffs are "
                "resolved locally, never posted)",
                msg,
            )

    def _check_areq(self, msg) -> None:
        if (msg.src_cluster, msg.vpn) not in self.protocol._refreshing:
            self._fail(
                "gcs-areq",
                f"G_AREQ for vpn {msg.vpn} from cluster {msg.src_cluster} "
                "with no acquire waiting on the refresh",
                msg,
            )

    def _check_grant(self, msg) -> None:
        frame = self.protocol.frames[msg.dst_cluster].get(msg.vpn)
        if frame is None or not frame.lock_held:
            self._fail(
                "gcs-grant",
                f"{msg.label} for vpn {msg.vpn} at cluster "
                f"{msg.dst_cluster} with no fetch outstanding",
                msg,
            )
        elif frame.state is not FrameState.BUSY:
            self._fail(
                "gcs-grant",
                f"{msg.label} for vpn {msg.vpn} but cluster "
                f"{msg.dst_cluster} is {frame.state.value}, not fetching",
                msg,
            )

    def _check_adata(self, msg) -> None:
        p = self.protocol
        frame = p.frames[msg.dst_cluster].get(msg.vpn)
        if frame is None or not frame.lock_held:
            self._fail(
                "gcs-refresh",
                f"G_ADATA for vpn {msg.vpn} at cluster {msg.dst_cluster} "
                "with no refresh outstanding",
                msg,
            )
            return
        if frame.state is not FrameState.WRITE or frame.twin is None:
            state = frame.state.value
            self._fail(
                "gcs-refresh",
                f"G_ADATA for vpn {msg.vpn} but cluster {msg.dst_cluster} "
                f"is {state} (twin "
                f"{'present' if frame.twin is not None else 'absent'}); "
                "refreshes only target written pages",
                msg,
            )
        if (msg.dst_cluster, msg.vpn) not in p._refreshing:
            self._fail(
                "gcs-refresh",
                f"G_ADATA for vpn {msg.vpn} at cluster {msg.dst_cluster} "
                "with no acquire waiting on the refresh",
                msg,
            )

    def _check_rack(self, msg) -> None:
        if msg.dst_pid not in self.protocol._drain:
            self._fail(
                "gcs-rack",
                f"G_RACK for vpn {msg.vpn} but proc {msg.dst_pid} has no "
                "release drain awaiting an acknowledgement",
                msg,
            )

    def _check_version(self, msg) -> None:
        # Grants and acks carry monotone versions; a cluster may never
        # believe it is *ahead* of the home.
        p = self.protocol
        fv = p.fversions[msg.dst_cluster].get(msg.vpn)
        if fv is not None and fv > p.versions.get(msg.vpn, 0):
            self._fail(
                "gcs-version",
                f"cluster {msg.dst_cluster} holds vpn {msg.vpn} at "
                f"fversion {fv} > home version "
                f"{p.versions.get(msg.vpn, 0)}",
                msg,
            )

    def _check_grant_and_version(self, msg) -> None:
        self._check_grant(msg)
        self._check_version(msg)

    _CHECKS = {
        "G_RREQ": _check_request,
        "G_WREQ": _check_request,
        "G_DATA": _check_grant_and_version,
        "G_WDATA": _check_grant_and_version,
        "G_DIFF": _check_diff,
        "G_AREQ": _check_areq,
        "G_ADATA": _check_adata,
        "G_RACK": _check_rack,
    }

    # ------------------------------------------------------------------
    # structural checks
    # ------------------------------------------------------------------

    def check_page(self, vpn: int) -> None:
        p = self.protocol
        for cluster in range(self.config.num_clusters):
            fv = p.fversions[cluster].get(vpn)
            if fv is not None and fv > p.versions.get(vpn, 0):
                self.s.fail(
                    "gcs-version",
                    f"cluster {cluster} holds vpn {vpn} at fversion {fv} "
                    f"> home version {p.versions.get(vpn, 0)}",
                    vpn=vpn,
                )

    def check_quiescent(self) -> None:
        p = self.protocol
        for cluster, frames in enumerate(p.frames):
            for vpn, frame in sorted(frames.items()):
                if frame.state is FrameState.BUSY or frame.lock_held:
                    self.s.fail(
                        "quiesce-gcs-busy",
                        f"cluster {cluster} still fetching or refreshing "
                        f"vpn {vpn} at quiescence",
                        vpn=vpn,
                    )
                if frame.state is FrameState.WRITE and frame.twin is None:
                    self.s.fail(
                        "quiesce-gcs-twin",
                        f"cluster {cluster} holds vpn {vpn} writable with "
                        "no twin at quiescence",
                        vpn=vpn,
                    )
        if p._refreshing:
            self.s.fail(
                "quiesce-gcs-refresh",
                "acquire refreshes still outstanding at quiescence: "
                f"{sorted(p._refreshing)}",
            )
        if p._drain:
            self.s.fail(
                "quiesce-gcs-drain",
                f"release drains still awaiting acks at quiescence: "
                f"procs {sorted(p._drain)}",
            )

    # ------------------------------------------------------------------
    # queue-aware whole-state rules (explorer only)
    # ------------------------------------------------------------------

    def check_state(self, inflight) -> None:
        """Open drains and refreshes must have their round-trip in flight,
        or, for a refresh, its completion queued."""
        super().check_state(inflight)
        p = self.protocol
        for pid in sorted(p._drain):
            if not any(
                m.label in ("G_DIFF", "G_RACK")
                and (m.src_pid == pid or m.dst_pid == pid)
                for m in inflight
            ):
                self.s.fail(
                    "gcs-drain-stuck",
                    f"proc {pid} awaits a release acknowledgement with no "
                    "G_DIFF or G_RACK in flight",
                )
        # After G_ADATA is applied, the refresh stays open until its
        # timed _refresh_done, a local event rather than a message.
        completing = [
            (args[0].cluster, args[0].vpn)
            for _time, fn, args in p.sim.pending_events()
            if fn == p._refresh_done
        ]
        for cluster, vpn in sorted(p._refreshing):
            if (cluster, vpn) not in completing and not any(
                m.vpn == vpn
                and m.label in ("G_AREQ", "G_ADATA")
                and (m.src_cluster == cluster or m.dst_cluster == cluster)
                for m in inflight
            ):
                self.s.fail(
                    "gcs-refresh-stuck",
                    f"cluster {cluster} awaits a refresh of vpn {vpn} "
                    "with no G_AREQ or G_ADATA in flight",
                    vpn=vpn,
                )
