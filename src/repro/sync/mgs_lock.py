"""The MGS token-based distributed lock (section 3.2).

Each MGS lock consists of a local lock on each SSMP and a single global
lock.  A token passes among the local locks; acquires on the SSMP that
owns the token succeed through hardware shared memory only (a *lock hit*
in the paper's Figure 11 metric).  When consecutive acquires come from
different SSMPs, the token must move: the requesting SSMP asks the global
lock's home, the home forwards the hand-off request to the current owner,
and the owner ships the token back through the home once its local queue
drains.  Local waiters are served before the token is handed off, which
is what rewards intra-SSMP lock locality.

At cluster size C == P the token never moves and the lock degrades to a
flat queue lock, matching the paper's P4 configuration.

A program may create thousands of locks (Barnes-Hut makes one per tree
node), so a lock is kept small: the classes are slotted, and the
per-SSMP waiter queues and the home's request queue are plain lists,
popped from the front.  A per-SSMP queue holds at most the cluster's
processors and the home queue at most one request per SSMP, so
``pop(0)`` stays cheap, and an empty list costs 56 bytes where a
``deque`` costs 760.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.machine import Machine
from repro.params import CostModel, MachineConfig

__all__ = ["MGSLock", "LockStats"]


@dataclass(slots=True)
class LockStats:
    """Acquire statistics backing Figure 11 (lock hit ratio)."""

    acquires: int = 0
    hits: int = 0  # satisfied without inter-SSMP communication
    token_transfers: int = 0

    @property
    def hit_ratio(self) -> float:
        if self.acquires == 0:
            return 1.0
        return self.hits / self.acquires


@dataclass(slots=True)
class _Waiter:
    pid: int
    on_done: Callable[[], None]
    local_at_enqueue: bool  # token was resident when the acquire arrived


class MGSLock:
    """One token-based hierarchical lock."""

    __slots__ = (
        "machine",
        "config",
        "costs",
        "lock_id",
        "stats",
        "home_cluster",
        "token_cluster",
        "token_in_transit",
        "holder",
        "_local_q",
        "_requested",
        "_home_pending",
        "_handoff_wanted",
        "_handoff_budget",
    )

    def __init__(
        self,
        machine: Machine,
        config: MachineConfig,
        costs: CostModel,
        lock_id: int,
        home_cluster: int = 0,
    ) -> None:
        self.machine = machine
        self.config = config
        self.costs = costs
        self.lock_id = lock_id
        self.stats = LockStats()
        n = config.num_clusters
        self.home_cluster = home_cluster % n
        #: cluster currently owning the token (starts at the global home)
        self.token_cluster = self.home_cluster
        self.token_in_transit = False
        self.holder: int | None = None
        self._local_q: list[list[_Waiter]] = [[] for _ in range(n)]
        self._requested = [False] * n
        #: remote requests queued at the global home, FIFO
        self._home_pending: list[int] = []
        #: hand-off request delivered to the current owner
        self._handoff_wanted = False
        #: local grants still allowed before honouring the hand-off
        #: (waiters already queued when the request arrived go first;
        #: later local arrivals must wait for the token to come back)
        self._handoff_budget = 0

    def state(self) -> tuple:
        """Token position, holder, queued waiters and hand-off progress."""
        return (
            self.token_cluster,
            self.token_in_transit,
            self.holder,
            tuple(
                tuple((w.pid, w.local_at_enqueue) for w in q)
                for q in self._local_q
            ),
            tuple(self._requested),
            tuple(self._home_pending),
            self._handoff_wanted,
            self._handoff_budget,
        )

    def close(self) -> None:
        """Drop the queued waiters and their wake-up callbacks; the
        statistics stay."""
        for q in self._local_q:
            q.clear()
        self._home_pending.clear()

    # ------------------------------------------------------------------

    def _manager(self, cluster: int) -> int:
        """Processor that runs this lock's handlers in ``cluster``."""
        return cluster * self.config.cluster_size + (
            self.lock_id % self.config.cluster_size
        )

    def acquire(self, pid: int, on_done: Callable[[], None]) -> None:
        """Request the lock for ``pid``; ``on_done`` fires once held."""
        cluster = self.machine.clusters[pid]
        token_here = self.token_cluster == cluster and not self.token_in_transit
        self.stats.acquires += 1
        waiter = _Waiter(pid, on_done, local_at_enqueue=token_here)
        self._local_q[cluster].append(waiter)
        if token_here:
            self._try_grant_local()
        elif not self._requested[cluster]:
            self._requested[cluster] = True
            self.machine.send(
                self._manager(cluster),
                self._manager(self.home_cluster),
                self._home_on_request,
                (cluster,),
                "LOCK_REQ",
            )

    def release(self, pid: int, on_done: Callable[[], None]) -> None:
        """Release the lock held by ``pid``.

        The caller must already have performed its release-consistency
        DUQ flush (the runtime does this), so the lock can move freely.
        """
        assert self.holder == pid, f"release by {pid} but holder is {self.holder}"
        self.holder = None
        sim = self.machine.sim
        sim.schedule(self.costs.lock_local_release, on_done)
        self._try_grant_local()

    # ------------------------------------------------------------------
    # local grant path
    # ------------------------------------------------------------------

    def _try_grant_local(self) -> None:
        cluster = self.token_cluster
        if self.token_in_transit or self.holder is not None:
            return
        queue = self._local_q[cluster]
        if self._handoff_wanted and (not queue or self._handoff_budget <= 0):
            self._ship_token()
            return
        if not queue:
            return
        waiter = queue.pop(0)
        if self._handoff_wanted:
            self._handoff_budget -= 1
        self.holder = waiter.pid
        if waiter.local_at_enqueue:
            self.stats.hits += 1
        self.machine.sim.schedule(self.costs.lock_local_acquire, waiter.on_done)

    # ------------------------------------------------------------------
    # token protocol (global lock)
    # ------------------------------------------------------------------

    def _home_on_request(self, req_cluster: int) -> None:
        """Global home received a token request from ``req_cluster``."""
        completion = self.machine.occupy(
            self._manager(self.home_cluster), self.costs.lock_global_hop
        )
        self._home_pending.append(req_cluster)
        if len(self._home_pending) == 1 and not self.token_in_transit:
            # Ask the current owner to hand the token over.
            self.machine.send(
                self._manager(self.home_cluster),
                self._manager(self.token_cluster),
                self._owner_on_handoff_request,
                (),
                "LOCK_HANDOFF_REQ",
                completion,
            )

    def _owner_on_handoff_request(self) -> None:
        owner = self._manager(self.token_cluster)
        self.machine.occupy(owner, self.costs.lock_global_hop)
        self._handoff_wanted = True
        # Bounded local preference: serve everyone already queued plus a
        # few more local acquires, then hand off.  This contains traffic
        # within the SSMP without starving remote clusters (the policy
        # of Cox et al the paper builds on).
        self._handoff_budget = (
            len(self._local_q[self.token_cluster])
            + max(1, self.config.cluster_size // 4)
        )
        if self.holder is None:
            self._try_grant_local()

    def _ship_token(self) -> None:
        """Send the token back through the home to the next requester."""
        assert self._handoff_wanted and self.holder is None
        self._handoff_wanted = False
        self.token_in_transit = True
        cluster = self.token_cluster
        src = self._manager(cluster)
        completion = self.machine.occupy(src, self.costs.lock_global_hop)
        self.machine.send(
            src,
            self._manager(self.home_cluster),
            self._home_on_token_return,
            (),
            "LOCK_TOKEN",
            completion,
        )
        if self._local_q[cluster]:
            # Waiters beyond the hand-off budget stay queued: their
            # acquire now involves inter-SSMP traffic (no longer a hit),
            # and the token must be asked back so they are not stranded.
            for waiter in self._local_q[cluster]:
                waiter.local_at_enqueue = False
            if not self._requested[cluster]:
                self._requested[cluster] = True
                self.machine.send(
                    src,
                    self._manager(self.home_cluster),
                    self._home_on_request,
                    (cluster,),
                    "LOCK_REQ",
                    completion,
                )

    def _home_on_token_return(self) -> None:
        home_mgr = self._manager(self.home_cluster)
        completion = self.machine.occupy(home_mgr, self.costs.lock_global_hop)
        assert self._home_pending, "token returned with no pending requester"
        dest = self._home_pending.pop(0)
        self.stats.token_transfers += 1
        self.machine.send(
            home_mgr,
            self._manager(dest),
            self._cluster_on_token,
            (dest,),
            "LOCK_TOKEN",
            completion,
        )

    def _cluster_on_token(self, cluster: int) -> None:
        completion = self.machine.occupy(
            self._manager(cluster), self.costs.lock_global_hop
        )
        self.token_cluster = cluster
        self.token_in_transit = False
        self._requested[cluster] = False
        if self._home_pending:
            # More clusters are waiting: pre-arm the hand-off so the token
            # keeps moving once this cluster's queue drains.
            self.machine.send(
                self._manager(self.home_cluster),
                self._manager(cluster),
                self._owner_on_handoff_request,
                (),
                "LOCK_HANDOFF_REQ",
                completion,
            )
        self._try_grant_local()
