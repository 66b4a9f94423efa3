"""Single-grain software page DSM — the Figure 6 all-software baseline.

This engine deliberately ignores the machine's hardware line sharing:
every *processor* is its own DSM node with a private replica of each
page it touches, exactly the protocol MGS degenerates to when the SSMP
node size is one.  Three properties define it:

* **Per-processor replication.**  ``frames`` is indexed by pid, not by
  cluster, and no node ever aliases the home copy — even the home
  processor works on a private replica.  ``hw_bypass`` is always False:
  there is no configuration in which this engine lets hardware carry
  shared data.
* **Eager release consistency.**  A release pushes every dirty page's
  diff home and the home runs an invalidation round over *all* other
  replicas (read and write) before acknowledging.  A write copy caught
  by a round returns its own diff with the acknowledgement and its
  dirty-set entry is *stolen*; the owner's next release sends a
  data-less ``join`` so it cannot complete before the round that
  carried its writes has.  The releaser drops its own copy when the
  diff leaves — after a release the home is the only consistent copy.
* **Local write upgrades.**  A write fault on a resident read copy
  twins the page locally without a message; the home learns of the
  writer from the release diff.

Directory note: ``HomePage.read_dir``/``write_dir`` hold *pids* here
(the replication grain), where MGS stores cluster ids.
"""

from __future__ import annotations

from typing import Callable

from repro.core.bus import handles
from repro.core.engine import Protocol, register_engine
from repro.core.page import (
    FrameState,
    HomePage,
    PageFrame,
    ServerState,
    Waiter,
    apply_diff,
    make_diff,
)
from repro.hw import CacheSystem
from repro.machine import Machine
from repro.params import CostModel, MachineConfig
from repro.protocols.swdsm.messages import (
    SData,
    SDiff,
    SIack,
    SInv,
    SRack,
    SRreq,
    SWreq,
)
from repro.sim import Simulator
from repro.svm import AddressSpace, MapMode

__all__ = ["SWDSMProtocol"]


@register_engine
class SWDSMProtocol(Protocol):
    """All-software single-grain page DSM (one DSM node per processor)."""

    name = "swdsm"

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
        n = config.total_processors
        #: per-*processor* replicas (the single-grain premise)
        self.frames: list[dict[int, PageFrame]] = [{} for _ in range(n)]
        #: per-processor dirty sets (insertion-ordered), the DUQ analogue
        self.dirty: list[dict[int, None]] = [{} for _ in range(n)]
        #: pages whose dirty entry was stolen by an invalidation round
        self.stolen: list[set[int]] = [set() for _ in range(n)]
        self.bus.register(self)

    # ------------------------------------------------------------------
    # engine surface
    # ------------------------------------------------------------------

    @property
    def hw_bypass(self) -> bool:
        """Never: this engine exists to show the cost of ignoring the
        hardware sharing the machine could provide."""
        return False

    def frames_view(self, pid: int) -> dict[int, PageFrame]:
        return self.frames[pid]

    def phase_state(self):
        return (
            self._phase_frames_state(self.frames),
            self._phase_homes_state(),
            tuple(tuple(d) for d in self.dirty),
            tuple(tuple(sorted(s)) for s in self.stolen),
        )

    def arc_rules(self, sanitizer):
        from repro.protocols.swdsm.arcs import SWDSMArcRules

        return SWDSMArcRules(sanitizer)

    # ------------------------------------------------------------------
    # fault handling (node side)
    # ------------------------------------------------------------------

    def _service(
        self,
        pid: int,
        vpn: int,
        want_write: bool,
        on_done: Callable[[], None],
        txn: int,
    ) -> None:
        costs = self.costs
        frame = self.frames[pid].get(vpn)
        assert frame is None or frame.state is not FrameState.BUSY, (
            f"node {pid} faulted on vpn {vpn} with a fetch already in flight"
        )

        if frame is not None and frame.state is FrameState.WRITE:
            self._fill(frame, pid, want_write, on_done)
            return

        if frame is not None and frame.state is FrameState.READ:
            if not want_write:
                self._fill(frame, pid, False, on_done)
                return
            # Local upgrade: twin the page and take the write mapping
            # without a message; the home learns from the release diff.
            frame.twin = frame.data.copy()
            frame.state = FrameState.WRITE
            self.tlbs[pid].fill(vpn, MapMode.WRITE)
            frame.tlb_dir.add(pid)
            self.dirty[pid][vpn] = None
            self.stats["upgrades"] += 1
            self.sim.schedule(
                costs.make_twin(self.words_per_page) + costs.map_fill, on_done
            )
            return

        # No usable replica: fetch from the home.
        cluster = pid // self.cluster_size
        if frame is None:
            frame = PageFrame(vpn=vpn, cluster=cluster, owner_pid=pid)
            self.frames[pid][vpn] = frame
        frame.owner_pid = pid
        frame.state = FrameState.BUSY
        frame.waiters.append(Waiter(pid, want_write, on_done, txn))
        home_pid = self.aspace.home_pids[vpn]
        request = SWreq if want_write else SRreq
        self.stats["write_requests" if want_write else "read_requests"] += 1
        self.bus.send(
            request, vpn, pid, home_pid, txn,
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
    # replication (home side)
    # ------------------------------------------------------------------

    @handles(SRreq, SWreq)
    def on_request(self, msg: SRreq | SWreq) -> None:
        home = self.home(msg.vpn)
        dispatch = self.dispatch_cost(msg.src_cluster, msg.vpn)
        if home.state is ServerState.REL_IN_PROG:
            self.machine.occupy(home.home_pid, dispatch)
            (home.wr if msg.want_write else home.rd).append(msg)
            self.stats["requests_queued_on_release"] += 1
            return
        self._grant(home, msg, dispatch)

    def _grant(self, home: HomePage, msg: SRreq | SWreq, dispatch: int) -> None:
        if home.state is ServerState.REL_IN_PROG:
            # A new round started between this grant being scheduled and
            # running; a copy granted now would dodge the round's sweep.
            (home.wr if msg.want_write else home.rd).append(msg)
            return
        costs = self.costs
        work = dispatch + costs.server_read + costs.msg_send
        if msg.want_write:
            work += costs.server_write_extra
        if msg.src_cluster != msg.dst_cluster:
            work += self.ship_page(msg.dst_cluster, home.vpn)
        else:
            # Even a same-SSMP node gets a private replica (no aliasing).
            work += costs.dma_page(self.lines_per_page)
        (home.write_dir if msg.want_write else home.read_dir).add(msg.src_pid)
        completion = self.machine.occupy(home.home_pid, work)
        self.bus.reply(
            SData, msg, completion, write=msg.want_write, data=home.data.copy()
        )

    @handles(SData)
    def on_data(self, msg: SData) -> None:
        pid, vpn = msg.dst_pid, msg.vpn
        frame = self.frames[pid][vpn]
        assert frame.state is FrameState.BUSY, (
            f"S_DATA for vpn {vpn} at node {pid} but frame is {frame.state}"
        )
        work = self.dispatch_cost(msg.dst_cluster, vpn)
        frame.data = msg.data
        if msg.write:
            frame.state = FrameState.WRITE
            frame.twin = msg.data.copy()
            work += self.costs.make_twin(self.words_per_page)
        else:
            frame.state = FrameState.READ
        completion = self.machine.occupy(pid, work)
        waiters = frame.waiters
        frame.waiters = []
        for waiter in waiters:
            mode = MapMode.WRITE if waiter.want_write else MapMode.READ
            self.tlbs[pid].fill(vpn, mode)
            frame.tlb_dir.add(pid)
            if waiter.want_write:
                self.dirty[pid][vpn] = None
            self.sim.schedule_at(
                completion + self.costs.map_fill, waiter.on_done
            )

    # ------------------------------------------------------------------
    # release operation (eager: diff home, invalidate every replica)
    # ------------------------------------------------------------------

    def _release(self, pid: int, on_done: Callable[[], None], txn: int) -> None:
        """Push every dirty page's diff home, one page at a time."""
        dirty = self.dirty[pid]
        stolen = self.stolen[pid]
        if stolen:
            for vpn in sorted(stolen):
                dirty.setdefault(vpn, None)
            stolen.clear()
            self.stats["stolen_joins"] += 1
        if not dirty:
            on_done()
            return
        self.stats["releases"] += 1
        self._release_next(pid, on_done, txn)

    def _release_next(
        self, pid: int, on_done: Callable[[], None], txn: int
    ) -> None:
        costs = self.costs
        dirty = self.dirty[pid]
        if not dirty:
            self.sim.schedule(costs.release_resume, on_done)
            return
        vpn = next(iter(dirty))
        del dirty[vpn]
        home_pid = self.aspace.home_pids[vpn]
        send_cost = self.dispatch_cost(pid // self.cluster_size, vpn)
        frame = self.frames[pid].get(vpn)
        self.stats["rel_pages"] += 1
        self.record_page(vpn, "releases")
        if frame is None or frame.state is not FrameState.WRITE:
            # Stolen entry: the writes already travelled home with an
            # invalidation round; send a data-less join.
            self.bus.send(
                SDiff, vpn, pid, home_pid, txn,
                at=self.sim.now + costs.release_entry + send_cost,
                join=True, on_done=on_done,
            )
            return
        indices, values = make_diff(frame.data, frame.twin)
        # Eager RC: after a release the home must be the only consistent
        # copy, so the releaser drops its own replica with the diff.
        self._drop(pid, frame)
        work = (
            costs.release_entry
            + costs.make_diff(self.words_per_page)
            + costs.free_page
        )
        self.bus.send(
            SDiff, vpn, pid, home_pid, txn,
            at=self.sim.now + work + send_cost,
            indices=indices, values=values, on_done=on_done,
        )

    def _drop(self, pid: int, frame: PageFrame) -> None:
        frame.state = FrameState.INVALID
        frame.data = None
        frame.twin = None
        frame.tlb_dir.discard(pid)
        self.tlbs[pid].invalidate(frame.vpn)

    @handles(SDiff)
    def on_diff(self, msg: SDiff) -> None:
        home = self.home(msg.vpn)
        dispatch = self.dispatch_cost(msg.src_cluster, msg.vpn)
        if home.state is ServerState.REL_IN_PROG:
            self.machine.occupy(home.home_pid, dispatch)
            if msg.join:
                # Coalesce: the round in flight (whichever it is) closes
                # strictly after the one that stole this page's writes.
                home.rl.append(msg)
                self.stats["releases_coalesced"] += 1
            else:
                home.pending_rels.append(msg)
                self.stats["releases_deferred"] += 1
            return
        if msg.join:
            # The stealing round has completed; home already consistent.
            completion = self.machine.occupy(
                home.home_pid, dispatch + self.costs.msg_send
            )
            self.stats["joins_acked"] += 1
            self.bus.reply(SRack, msg, completion, on_done=msg.on_done)
            return
        self._start_round(home, msg, dispatch)

    def _start_round(self, home: HomePage, msg: SDiff, dispatch: int) -> None:
        costs = self.costs
        apply_diff(home.data, msg.indices, msg.values)
        home.read_dir.discard(msg.src_pid)
        home.write_dir.discard(msg.src_pid)
        targets = sorted(home.read_dir | home.write_dir)
        home.state = ServerState.REL_IN_PROG
        home.rl = [msg]
        home.count = len(targets)
        home.round_txn = msg.txn
        self.stats["release_rounds"] += 1
        work = (
            dispatch
            + costs.server_release
            + costs.apply_fixed
            + costs.apply_words(len(msg.indices))
            + costs.msg_send * max(1, len(targets))
        )
        completion = self.machine.occupy(home.home_pid, work)
        if not targets:
            self.sim.schedule_at(completion, self._complete_round, home)
            return
        for pid in targets:
            self.bus.send(
                SInv, home.vpn, home.home_pid, pid, msg.txn, at=completion
            )

    @handles(SInv)
    def on_inv(self, msg: SInv) -> None:
        pid, vpn = msg.dst_pid, msg.vpn
        costs = self.costs
        frame = self.frames[pid].get(vpn)
        work = self.dispatch_cost(msg.dst_cluster, vpn) + costs.msg_send
        indices = values = None
        if frame is not None and frame.state is FrameState.WRITE:
            indices, values = make_diff(frame.data, frame.twin)
            work += costs.make_diff(self.words_per_page)
            # Steal the dirty entry: its writes travel with this round,
            # and the owner's next release must join it.
            del self.dirty[pid][vpn]
            self.stolen[pid].add(vpn)
            self.stats["writer_invalidations"] += 1
        if frame is not None and frame.state is not FrameState.INVALID:
            work += costs.free_page
            self._drop(pid, frame)
        completion = self.machine.occupy(pid, work)
        self.bus.reply(SIack, msg, completion, indices=indices, values=values)

    @handles(SIack)
    def on_iack(self, msg: SIack) -> None:
        home = self.home(msg.vpn)
        assert home.state is ServerState.REL_IN_PROG and home.count > 0, (
            f"S_IACK for vpn {msg.vpn} without an open round"
        )
        costs = self.costs
        work = self.dispatch_cost(msg.src_cluster, msg.vpn)
        if msg.indices is not None and len(msg.indices):
            apply_diff(home.data, msg.indices, msg.values)
            work += costs.apply_fixed + costs.apply_words(len(msg.indices))
        home.read_dir.discard(msg.src_pid)
        home.write_dir.discard(msg.src_pid)
        completion = self.machine.occupy(home.home_pid, work)
        home.count -= 1
        if home.count == 0:
            self.sim.schedule_at(completion, self._complete_round, home)

    def _complete_round(self, home: HomePage) -> None:
        home.state = ServerState.READ
        racks = home.rl
        home.rl = []
        home.count = 0
        home.round_txn = -1
        completion = self.machine.occupy(
            home.home_pid, self.costs.msg_send * len(racks)
        )
        for msg in racks:
            self.bus.reply(SRack, msg, completion, on_done=msg.on_done)
        if home.pending_rels:
            nxt = home.pending_rels.pop(0)
            self.sim.schedule_at(completion, self._replay_rel, home, nxt)
            return
        queued = home.rd + home.wr
        home.rd = []
        home.wr = []
        for msg in queued:
            self.sim.schedule_at(completion, self._grant, home, msg, 0)

    def _replay_rel(self, home: HomePage, msg: SDiff) -> None:
        if home.state is ServerState.REL_IN_PROG:
            home.pending_rels.append(msg)
            return
        self._start_round(home, msg, self.dispatch_cost(msg.src_cluster, msg.vpn))

    @handles(SRack)
    def on_rack(self, msg: SRack) -> None:
        completion = self.machine.occupy(
            msg.dst_pid, self.dispatch_cost(msg.dst_cluster, msg.vpn)
        )
        self.sim.schedule_at(
            completion, self._release_next, msg.dst_pid, msg.on_done, msg.txn
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        for pid, tlb in enumerate(self.tlbs):
            for vpn in tlb.mapped_vpns():
                frame = self.frames[pid].get(vpn)
                assert frame is not None and frame.mapped, (
                    f"TLB of node {pid} maps vpn {vpn} without a frame"
                )
                if tlb.has_write(vpn):
                    assert frame.state is FrameState.WRITE
                    assert frame.twin is not None
                    assert vpn in self.dirty[pid], (
                        f"write mapping of vpn {vpn} on node {pid} untracked"
                    )
