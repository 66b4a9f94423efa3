"""TSP: branch-and-bound with a centralized work queue (Figure 8).

The two performance pathologies the paper analyzes are preserved:

* a **centralized work queue** protected by one global MGS lock — every
  pop and every push needs mutually exclusive access, and under software
  page coherence the release at unlock dilates the critical section
  (*critical-section dilation*);
* **false sharing in the path-element pool** — path elements are 56 bytes
  (7 words, exactly the paper's size), contiguously allocated, and
  randomly assigned to processors through the queue, so unrelated
  elements share pages.

Workers pop a partial tour, expand it by every unvisited city whose
lower bound beats the incumbent best tour, push the children, and update
the best cost (its own lock) on complete tours.  Termination uses a
pending-work counter maintained under the queue lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.common import AppRun
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime
from repro.svm import AccessKind

__all__ = ["TSPParams", "golden", "build", "run"]

#: words per path element: 56 bytes, as in the paper (section 5.2.1)
ELEM_WORDS = 7
#: cycles to evaluate one child's lower bound
COMPUTE_PER_CHILD = 40
#: cycles an idle worker waits before re-polling the queue
POLL_BACKOFF = 800


@dataclass(frozen=True)
class TSPParams:
    """Problem size (paper: 10-city tour; scaled to 9 by default)."""

    ncities: int = 9
    seed: int = 7
    pool_size: int = 20000
    #: cycles of tour processing per expanded node (copying the 56-byte
    #: path element, recomputing bounds); calibrated to the paper's
    #: compute-to-communication ratio
    expand_compute: int = 12000
    #: cycles of queue manipulation inside the critical section (the
    #: "very short" critical section of section 5.2.1)
    queue_cs_compute: int = 250

    def distances(self) -> np.ndarray:
        """Symmetric integer distance matrix from random city coordinates."""
        rng = np.random.default_rng(self.seed)
        coords = rng.uniform(0.0, 100.0, size=(self.ncities, 2))
        delta = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=2)).round()
        np.fill_diagonal(dist, 0.0)
        return dist


@lru_cache(maxsize=None)
def golden(params: TSPParams) -> float:
    """Optimal tour cost by Held-Karp dynamic programming (memoized)."""
    dist = params.distances()
    n = params.ncities

    @lru_cache(maxsize=None)
    def best(visited: int, last: int) -> float:
        if visited == (1 << n) - 1:
            return dist[last][0]
        result = float("inf")
        for city in range(n):
            if not visited & (1 << city):
                result = min(
                    result, dist[last][city] + best(visited | (1 << city), city)
                )
        return result

    return float(best(1, 0))


def build(rt: Runtime, params: TSPParams):
    """Allocate the queue, pools, and bound; spawn the workers."""
    n = params.ncities
    dist = params.distances()
    config = rt.config
    nprocs = config.total_processors

    dist_arr = rt.array("dist", n * n)
    dist_arr.init(dist.ravel())
    # Path-element pool: contiguous 56-byte records (false sharing).
    pool = rt.array("pool", params.pool_size * ELEM_WORDS, kind=AccessKind.POINTER)
    # Work queue: a stack of element indices plus its control words.
    stack = rt.array("stack", params.pool_size, kind=AccessKind.POINTER)
    # head, alloc, pending live together on the queue's page (home 0).
    qctl = rt.array("qctl", 3, home=0)
    best_arr = rt.array("best", 1, home=nprocs - 1)
    # Workers read the incumbent bound without the lock when pruning
    # (below); the bound only tightens, so a stale read merely expands a
    # few extra nodes.  Declare it so the race detector can certify the
    # rest of the execution (no-op when analysis is off).
    rt.annotate_benign_race(
        best_arr.addr(0), words=1, reason="monotonic incumbent bound"
    )

    # Cheap admissible bound: remaining hops x the cheapest edge.
    min_edge = float(np.min(dist + np.eye(n) * 1e9))

    queue_lock = rt.create_lock(home_cluster=0)
    best_lock = rt.create_lock(home_cluster=config.num_clusters - 1)

    HEAD, ALLOC, PENDING = qctl.addr(0), qctl.addr(1), qctl.addr(2)
    # Seed: root element = tour {0}, last city 0, cost 0.
    qctl.init([1.0, 1.0, 1.0])
    root = np.zeros(params.pool_size * ELEM_WORDS)
    root[0] = float(1 << 0)  # visited bitmask
    root[1] = 0.0  # last city
    root[2] = 1.0  # depth
    root[3] = 0.0  # partial cost
    pool.init(root)
    stack_init = np.zeros(params.pool_size)
    stack_init[0] = 0.0  # index of the root element
    stack.init(stack_init)
    best_arr.init([1e18])

    def elem_field(idx: int, field: int) -> int:
        return pool.addr(idx * ELEM_WORDS + field)

    def worker(env):
        while True:
            # ---- pop ---------------------------------------------------
            yield from env.lock(queue_lock)
            head = yield from env.read(HEAD, ptr=True)
            if head > 0:
                yield from env.compute(params.queue_cs_compute)
                yield from env.write(HEAD, head - 1, ptr=True)
                elem = int((yield from env.read(stack.addr(int(head) - 1), ptr=True)))
                yield from env.unlock(queue_lock)
            else:
                pending = yield from env.read(PENDING, ptr=True)
                yield from env.unlock(queue_lock)
                if pending <= 0:
                    break  # all work finished
                yield from env.compute(POLL_BACKOFF)
                continue

            # ---- expand ------------------------------------------------
            visited = int((yield from env.read(elem_field(elem, 0), ptr=True)))
            last = int((yield from env.read(elem_field(elem, 1), ptr=True)))
            depth = int((yield from env.read(elem_field(elem, 2), ptr=True)))
            cost = yield from env.read(elem_field(elem, 3), ptr=True)

            if depth == n:
                tour_cost = cost + dist[last][0]
                yield from env.lock(best_lock)
                incumbent = yield from env.read(best_arr.addr(0), ptr=True)
                if tour_cost < incumbent:
                    yield from env.write(best_arr.addr(0), tour_cost, ptr=True)
                yield from env.unlock(best_lock)
                # Retire this element.
                yield from env.lock(queue_lock)
                pending = yield from env.read(PENDING, ptr=True)
                yield from env.write(PENDING, pending - 1, ptr=True)
                yield from env.unlock(queue_lock)
                continue

            yield from env.compute(params.expand_compute)
            incumbent = yield from env.read(best_arr.addr(0), ptr=True)
            children = []
            for city in range(n):
                if visited & (1 << city):
                    continue
                child_cost = cost + dist[last][city]
                bound = child_cost + (n - depth) * min_edge
                yield from env.compute(COMPUTE_PER_CHILD)
                if bound < incumbent:
                    children.append((city, child_cost))

            # ---- reserve pool slots -------------------------------------
            nkids = len(children)
            base = 0
            if nkids:
                yield from env.lock(queue_lock)
                base = int((yield from env.read(ALLOC, ptr=True)))
                if base + nkids > params.pool_size:
                    raise RuntimeError("TSP pool exhausted; raise pool_size")
                yield from env.write(ALLOC, base + nkids, ptr=True)
                yield from env.unlock(queue_lock)
                # Fill the fresh elements (private until pushed).
                for k, (city, child_cost) in enumerate(children):
                    idx = base + k
                    yield from env.write(
                        elem_field(idx, 0), float(visited | (1 << city)), ptr=True
                    )
                    yield from env.write(elem_field(idx, 1), float(city), ptr=True)
                    yield from env.write(elem_field(idx, 2), float(depth + 1), ptr=True)
                    yield from env.write(elem_field(idx, 3), child_cost, ptr=True)

            # ---- push + retire ------------------------------------------
            yield from env.lock(queue_lock)
            yield from env.compute(params.queue_cs_compute)
            head = int((yield from env.read(HEAD, ptr=True)))
            for k in range(nkids):
                yield from env.write(stack.addr(head + k), float(base + k), ptr=True)
            yield from env.write(HEAD, head + nkids, ptr=True)
            pending = yield from env.read(PENDING, ptr=True)
            yield from env.write(PENDING, pending - 1 + nkids, ptr=True)
            yield from env.unlock(queue_lock)

        yield from env.barrier()

    rt.spawn_all(worker)
    return best_arr


def run(
    config: MachineConfig,
    params: TSPParams | None = None,
    costs: CostModel | None = None,
    options: RunOptions | None = None,
) -> AppRun:
    params = params if params is not None else TSPParams()
    with Runtime(config, costs, options=options) as rt:
        best_arr = build(rt, params)
        result = rt.run()
        measured = float(best_arr.snapshot()[0])
    reference = golden(params)
    return AppRun(
        name="tsp",
        result=result,
        valid=measured == reference,
        max_error=abs(measured - reference),
        aux={
            "ncities": params.ncities,
            "optimal_cost": reference,
            "nodes_expanded": result.lock_stats.acquires,
        },
    )
