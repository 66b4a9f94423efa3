"""Protocol context and facade wiring the three MGS engines together.

:class:`MGSProtocol` is the entry point the runtime uses; every entry is
inherited from :class:`~repro.core.engine.Protocol`:

* ``fault`` — a processor suffered a mapping (TLB) fault; the Local
  Client services it and the callback fires at completion time.
* ``release`` — a processor reached a release point (unlock or
  barrier); the Local Client drains the DUQ, one ``REL`` at a time.
* ``poke`` / ``peek`` — zero-cost home copy initialization /
  inspection, used to load application data before timing starts and to
  validate results afterwards.

The protocol also exposes the shared state the engines operate on: TLBs,
DUQs, per-cluster page frames, and per-page home state.
"""

from __future__ import annotations

from repro.core.engine import Protocol, ProtocolStats, register_engine
from repro.core.page import FrameState, PageFrame
from repro.hw import CacheSystem
from repro.machine import Machine
from repro.params import CostModel, MachineConfig
from repro.protocols.mgs.duq import DUQ
from repro.sim import Simulator
from repro.svm import AddressSpace

__all__ = ["MGSProtocol", "ProtocolStats"]


@register_engine
class MGSProtocol(Protocol):
    """The complete multigrain shared-memory system of the paper."""

    name = "mgs"

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
        self.duqs = [DUQ(p) for p in range(config.total_processors)]
        #: pages whose DUQ entry was stolen by an invalidation round
        #: (Table 1, arc 12) before this processor released them; the
        #: next release must join those rounds — see LocalClient.release
        self.stolen: list[set[int]] = [set() for _ in range(config.total_processors)]
        self.frames: list[dict[int, PageFrame]] = [
            {} for _ in range(config.num_clusters)
        ]

        # The engines import this module; bind them lazily to avoid cycles.
        from repro.protocols.mgs.local_client import LocalClient
        from repro.protocols.mgs.remote_client import RemoteClient
        from repro.protocols.mgs.server import Server

        self.local = LocalClient(self)
        self.remote = RemoteClient(self)
        self.server = Server(self)
        self.bus.register(self.local)
        self.bus.register(self.remote)
        self.bus.register(self.server)
        # The Local Client runs the fault and release bodies.
        self._service = self.local._service
        self._release = self.local.release

    # ------------------------------------------------------------------
    # engine surface
    # ------------------------------------------------------------------

    def arc_rules(self, sanitizer):
        from repro.protocols.mgs.arcs import MGSArcRules

        return MGSArcRules(sanitizer)

    @classmethod
    def validate_config(cls, config: MachineConfig) -> None:
        """MGS implements every :class:`ProtocolOptions` knob."""

    def phase_state(self):
        return (
            self._phase_frames_state(self.frames),
            self._phase_homes_state(),
            tuple(tuple(duq.vpns()) for duq in self.duqs),
            tuple(tuple(sorted(s)) for s in self.stolen),
        )

    def phase_stat_cells(self) -> list[tuple[object, str]]:
        cells: list[tuple[object, str]] = []
        for duq in self.duqs:
            cells.append((duq, "enqueues"))
            cells.append((duq, "early_removals"))
        return cells

    def close(self) -> None:
        super().close()
        for duq in self.duqs:
            duq.close()
        # the three engines point back at this context
        self.local.ctx = self.remote.ctx = self.server.ctx = None

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------

    def frame(self, cluster: int, vpn: int) -> PageFrame | None:
        return self.frames[cluster].get(vpn)

    # ------------------------------------------------------------------
    # invariants (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert cross-engine invariants; raises AssertionError on bugs."""
        if self.config.hardware_only:
            # MGS is nulled at C == P: TLB entries act as a touched-set
            # for SVM fill costs and have no frames behind them.
            return
        for pid, tlb in enumerate(self.tlbs):
            cluster = pid // self.cluster_size
            for vpn in tlb.mapped_vpns():
                frame = self.frame(cluster, vpn)
                assert frame is not None and frame.mapped, (
                    f"TLB of proc {pid} maps vpn {vpn} but frame is absent/unmapped"
                )
                assert pid in frame.tlb_dir, (
                    f"proc {pid} maps vpn {vpn} but is missing from tlb_dir"
                )
                if tlb.has_write(vpn):
                    assert frame.state is FrameState.WRITE
                    assert vpn in self.duqs[pid], (
                        f"write mapping of vpn {vpn} on proc {pid} not in DUQ"
                    )
        for vpn, home in self.homes.items():
            for cluster in sorted(home.write_dir):
                frame = self.frame(cluster, vpn)
                assert frame is not None, (
                    f"write_dir of vpn {vpn} lists cluster {cluster} with no frame"
                )
