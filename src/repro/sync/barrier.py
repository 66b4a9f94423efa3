"""Hierarchical tree barrier (section 3.2).

The MGS barrier matches the DSSMP structure: the first level synchronizes
the processors of each SSMP through hardware shared memory; the second
level synchronizes the SSMPs with exactly two inter-SSMP messages per
SSMP — one combine up to the root, one release back down — the minimum
the paper cites.

At cluster size C == P the same object degrades into the flat (P4-style)
barrier used for the paper's 32-processor bars: a single level, no
messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.machine import Machine
from repro.params import CostModel, MachineConfig

__all__ = ["TreeBarrier"]


@dataclass
class _ClusterState:
    arrived: int = 0
    waiters: list = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.waiters = []


class TreeBarrier:
    """One reusable two-level barrier."""

    def __init__(
        self, machine: Machine, config: MachineConfig, costs: CostModel
    ) -> None:
        self.machine = machine
        self.config = config
        self.costs = costs
        self._clusters = [_ClusterState() for _ in range(config.num_clusters)]
        self._combined = 0
        self.episodes = 0

    def state(self) -> tuple:
        """Combine count at the root and per-SSMP arrivals."""
        return (
            self._combined,
            tuple((c.arrived, len(c.waiters)) for c in self._clusters),
        )

    def _manager(self, cluster: int) -> int:
        return cluster * self.config.cluster_size

    @property
    def _root(self) -> int:
        return self._manager(0)

    def arrive(self, pid: int, on_done: Callable[[], None]) -> None:
        """Processor ``pid`` reached the barrier."""
        config = self.config
        cluster = config.cluster_of(pid)
        state = self._clusters[cluster]
        state.arrived += 1
        state.waiters.append(on_done)

        if config.hardware_only:
            if state.arrived == config.cluster_size:
                self._release_cluster(cluster, flat=True)
            return

        if state.arrived == config.cluster_size:
            # Last in the SSMP: combine up to the root.
            combine_cost = self.costs.barrier_local_per_proc * config.cluster_size
            self.machine.send(
                pid,
                self._root,
                self._on_combine,
                (),
                "BAR_COMBINE",
                self.machine.sim.now + combine_cost,
            )

    def _on_combine(self) -> None:
        completion = self.machine.occupy(self._root, self.costs.barrier_msg)
        self._combined += 1
        if self._combined < self.config.num_clusters:
            return
        # Everyone arrived: release every SSMP.
        self._combined = 0
        self.episodes += 1
        for cluster in range(self.config.num_clusters):
            completion = self.machine.occupy(self._root, self.costs.msg_send)
            self.machine.send(
                self._root,
                self._manager(cluster),
                self._on_release,
                (cluster,),
                "BAR_RELEASE",
                completion,
            )

    def _on_release(self, cluster: int) -> None:
        completion = self.machine.occupy(
            self._manager(cluster), self.costs.barrier_msg
        )
        self.machine.sim.schedule_at(completion, self._release_cluster, cluster, False)

    def _release_cluster(self, cluster: int, flat: bool) -> None:
        state = self._clusters[cluster]
        waiters = state.waiters
        state.waiters = []
        state.arrived = 0
        if flat:
            self.episodes += 1
            per_proc = self.costs.barrier_flat_per_proc
        else:
            per_proc = self.costs.barrier_local_per_proc
        sim = self.machine.sim
        for i, on_done in enumerate(waiters):
            # Wake-ups fan out through the SSMP's hardware shared memory.
            sim.schedule(per_proc * (1 + i % 4), on_done)
