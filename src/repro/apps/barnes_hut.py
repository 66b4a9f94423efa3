"""Barnes-Hut: 3-D hierarchical n-body simulation (Figure 10).

The sharing structure follows the SPLASH code as the paper describes it:

* **parallel tree build** — every iteration, processors insert their
  bodies into a shared octree under per-node locks.  Mass and
  center-of-mass accumulators are updated on the way down, so nodes near
  the root are written by everyone: the paper's observation that the
  build phase has a very high frequency of software consistency
  operations (and hence critical-section dilation) emerges directly.
* **distributed cell allocation** — each processor allocates tree nodes
  from its own slab of the node pool, the modification the paper made to
  relieve a centralized allocation lock (as in SPLASH-2).
* **read-only force traversal** — the theta-criterion walk reads node
  summaries and body positions without locks.
* **owner-computes update** — velocities/positions of owned bodies.

Validation: the tree's root mass/center-of-mass must equal the exact
totals (order-independent invariants), the tree-built forces must match a
sequential Barnes-Hut golden run, and the approximation must stay close
to the direct O(N^2) sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.common import AppRun, block_range
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime
from repro.svm import AccessKind

__all__ = ["BarnesHutParams", "golden", "build", "run"]

#: words per tree node record (page = 128 words -> 4 nodes per page)
NODE_WORDS = 32
# node field offsets
F_TYPE = 0  # 0 empty, 1 internal, 2 leaf
F_MASS = 1
F_COM = 2  # 3 words: mass-weighted position sums
F_CENTER = 5  # 3 words
F_HALF = 8
F_CHILD = 9  # 8 words: child node indices (0 = absent)
F_NBODY = 17
F_BODIES = 18  # up to LEAF_CAP body indices
LEAF_CAP = 8

EMPTY, INTERNAL, LEAF = 0.0, 1.0, 2.0

#: cycles per node visited in the force traversal
COMPUTE_PER_VISIT = 40
#: cycles per direct body-body interaction
COMPUTE_PER_DIRECT = 60
#: cycles per insertion step (octant computation etc.)
COMPUTE_PER_DESCEND = 30

THETA = 0.6
DT = 0.01
SOFTEN = 0.01


def _morton_key(p, bits: int = 8) -> int:
    """Interleaved-bit (Z-order) key of a point in [0, 1)^3."""
    scaled = [min((1 << bits) - 1, int(c * (1 << bits))) for c in p]
    key = 0
    for bit in range(bits):
        for dim in range(3):
            key |= ((scaled[dim] >> bit) & 1) << (3 * bit + dim)
    return key


@dataclass(frozen=True)
class BarnesHutParams:
    """Problem size (paper: 2K bodies, 3 iterations; scaled)."""

    n_bodies: int = 96
    iterations: int = 3
    seed: int = 5
    #: cycles per tree-node visit in the force traversal (calibrated to
    #: the paper's compute-to-communication ratio at the scaled size)
    compute_per_visit: int = 2600

    def initial_bodies(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        pos = rng.uniform(0.1, 0.9, size=(self.n_bodies, 3))
        # Sort bodies along a Morton (Z-order) curve so a contiguous
        # block partition is also a spatial partition: processors insert
        # into nearby subtrees, giving the per-SSMP lock locality the
        # SPLASH partitioning schemes provide.
        keys = [_morton_key(p) for p in pos]
        order = np.argsort(keys, kind="stable")
        pos = pos[order]
        mass = np.ones(self.n_bodies)
        return pos, mass

    @property
    def pool_per_iteration(self) -> int:
        # Generous: splits allocate up to eight children at once, and the
        # pool is divided into fixed per-processor slabs.
        return 16 * self.n_bodies


class _SeqTree:
    """Sequential octree used by the golden run: the same insertion and
    traversal rules the simulated workers follow, over plain floats
    (positions and centers are 3-tuples, ``com`` a 3-list of sums)."""

    def __init__(self) -> None:
        self.nodes: list[dict] = []

    def new_node(self, center, half) -> int:
        self.nodes.append(
            {
                "type": EMPTY,
                "mass": 0.0,
                "com": [0.0, 0.0, 0.0],
                "center": tuple(center),
                "half": half,
                "children": [0] * 8,
                "bodies": [],
            }
        )
        return len(self.nodes) - 1

    @staticmethod
    def octant(center, p) -> int:
        return (p[0] > center[0]) | ((p[1] > center[1]) << 1) | (
            (p[2] > center[2]) << 2
        )

    def child_center(self, node, oct_no):
        quarter = node["half"] / 2.0
        cx, cy, cz = node["center"]
        return (
            cx + (quarter if oct_no & 1 else -quarter),
            cy + (quarter if oct_no & 2 else -quarter),
            cz + (quarter if oct_no & 4 else -quarter),
        )

    @staticmethod
    def _accumulate(nd, m, p) -> None:
        """Add a body of mass ``m`` at ``p`` to node ``nd``'s sums."""
        nd["mass"] += m
        com = nd["com"]
        com[0] += m * p[0]
        com[1] += m * p[1]
        com[2] += m * p[2]

    def insert(self, root: int, b: int, pos, mass) -> None:
        node = root
        while True:
            nd = self.nodes[node]
            if nd["type"] == EMPTY:
                nd["type"] = LEAF
                nd["bodies"] = [b]
                return
            if nd["type"] == INTERNAL:
                self._accumulate(nd, mass[b], pos[b])
                oct_no = self.octant(nd["center"], pos[b])
                child = nd["children"][oct_no]
                if child == 0:
                    child = self.new_node(self.child_center(nd, oct_no), nd["half"] / 2)
                    cn = self.nodes[child]
                    cn["type"] = LEAF
                    cn["bodies"] = [b]
                    nd["children"][oct_no] = child
                    return
                node = child
                continue
            # leaf
            if len(nd["bodies"]) < LEAF_CAP:
                nd["bodies"].append(b)
                return
            # split: convert to internal, push residents down one level
            residents = nd["bodies"]
            nd["bodies"] = []
            nd["type"] = INTERNAL
            for rb in residents:
                self._accumulate(nd, mass[rb], pos[rb])
                oct_no = self.octant(nd["center"], pos[rb])
                child = nd["children"][oct_no]
                if child == 0:
                    child = self.new_node(self.child_center(nd, oct_no), nd["half"] / 2)
                    self.nodes[child]["type"] = LEAF
                    nd["children"][oct_no] = child
                self.nodes[child]["bodies"].append(rb)
            # note: an over-full child splits on the next descent
            # continue inserting b into this (now internal) node


def _force_on(i, pos, mass, tree: "_SeqTree", root: int) -> tuple:
    """Acceleration ``(ax, ay, az)`` on body ``i`` from a theta-criterion
    walk of ``tree``; ``pos`` holds 3-tuples and ``mass`` floats."""
    px, py, pz = pos[i]
    ax = ay = az = 0.0
    nodes = tree.nodes
    stack = [root]
    while stack:
        nd = nodes[stack.pop()]
        if nd["type"] == LEAF:
            for b in nd["bodies"]:
                if b == i:
                    continue
                bx, by, bz = pos[b]
                dx, dy, dz = bx - px, by - py, bz - pz
                r2 = dx * dx + dy * dy + dz * dz + SOFTEN
                s = r2 * math.sqrt(r2)
                m = mass[b]
                ax += m * dx / s
                ay += m * dy / s
                az += m * dz / s
        elif nd["type"] == INTERNAL:
            m = nd["mass"]
            cx, cy, cz = nd["com"]
            dx, dy, dz = cx / m - px, cy / m - py, cz / m - pz
            r = math.sqrt(dx * dx + dy * dy + dz * dz) + 1e-12
            if (2.0 * nd["half"]) / r < THETA:
                r2 = r * r + SOFTEN
                s = r2 * math.sqrt(r2)
                ax += m * dx / s
                ay += m * dy / s
                az += m * dz / s
            else:
                stack.extend(c for c in nd["children"] if c)
    return ax, ay, az


@lru_cache(maxsize=None)
def golden(params: BarnesHutParams):
    """Sequential Barnes-Hut over all iterations.

    Returns the final positions, read-only: the result is memoized per
    ``params``.
    """
    pos, mass = params.initial_bodies()
    pos = pos.copy()
    mass = mass.tolist()
    vel = np.zeros_like(pos)
    for _ in range(params.iterations):
        points = [tuple(p) for p in pos.tolist()]
        tree = _SeqTree()
        root = tree.new_node((0.5, 0.5, 0.5), 2.0)
        tree.nodes[root]["type"] = INTERNAL
        for b in range(params.n_bodies):
            tree.insert(root, b, points, mass)
        acc = np.array(
            [_force_on(i, points, mass, tree, root) for i in range(params.n_bodies)]
        )
        vel += acc * DT
        pos += vel * DT
    pos.setflags(write=False)
    return pos


def build(rt: Runtime, params: BarnesHutParams):
    n = params.n_bodies
    config = rt.config
    nprocs = config.total_processors
    pos0, mass0 = params.initial_bodies()

    # Body records: pos[3] vel[3] acc[3] mass[1] + padding = 16 words.
    BODY_WORDS = 16
    bodies = rt.array(
        "bodies",
        n * BODY_WORDS,
        home=lambda pg: min(
            nprocs - 1,
            (pg * config.words_per_page // BODY_WORDS) * nprocs // max(n, 1),
        ),
    )
    binit = np.zeros(n * BODY_WORDS)
    for i in range(n):
        binit[i * BODY_WORDS : i * BODY_WORDS + 3] = pos0[i]
        binit[i * BODY_WORDS + 9] = mass0[i]
    bodies.init(binit)

    pool_per_iter = params.pool_per_iteration
    pool_total = pool_per_iter * params.iterations
    # Node pool, distributed so each processor allocates from its own
    # memory (the paper's decentralized cell allocation).
    slab = pool_per_iter // nprocs

    def node_home(pg: int) -> int:
        node = pg * config.words_per_page // NODE_WORDS
        within = node % pool_per_iter
        if within == 0:
            return 0
        return min(nprocs - 1, (within - 1) // max(slab, 1))

    nodes = rt.array(
        "nodes", pool_total * NODE_WORDS, home=node_home, kind=AccessKind.POINTER
    )
    node_locks = [rt.create_lock(home_cluster=config.cluster_of(node_home(
        (k % pool_per_iter) * NODE_WORDS // config.words_per_page))) for k in
        range(pool_per_iter)]

    def nw(idx: int, field: int) -> int:
        return nodes.addr(idx * NODE_WORDS + field)

    def body_addr(b: int, field: int) -> int:
        return bodies.addr(b * BODY_WORDS + field)

    def lock_of(idx: int):
        return node_locks[idx % pool_per_iter]

    def worker(env):
        mine = block_range(n, nprocs, env.pid)
        # Private allocation slab: [start, end) node indices per iteration.
        for it in range(params.iterations):
            base = it * pool_per_iter
            # Proc 0 sets up the root (index base + 0) before the phase.
            if env.pid == 0:
                yield from env.write(nw(base, F_TYPE), INTERNAL, ptr=True)
                yield from env.write(nw(base, F_CENTER + 0), 0.5, ptr=True)
                yield from env.write(nw(base, F_CENTER + 1), 0.5, ptr=True)
                yield from env.write(nw(base, F_CENTER + 2), 0.5, ptr=True)
                yield from env.write(nw(base, F_HALF), 2.0, ptr=True)
            yield from env.barrier()

            next_alloc = base + 1 + env.pid * max((pool_per_iter - 1) // nprocs, 1)
            slab_end = base + 1 + (env.pid + 1) * max((pool_per_iter - 1) // nprocs, 1)

            def alloc_node():
                nonlocal next_alloc
                if next_alloc >= slab_end:
                    raise RuntimeError("barnes-hut node slab exhausted")
                idx = next_alloc
                next_alloc += 1
                return idx

            # ---- parallel tree build --------------------------------
            my_pos: dict[int, np.ndarray] = {}
            for b in mine:
                p = np.empty(3)
                for k in range(3):
                    p[k] = yield from env.read(body_addr(b, k))
                my_pos[b] = p
                mb = yield from env.read(body_addr(b, 9))
                node = base
                while True:
                    yield from env.lock(lock_of(node))
                    ntype = yield from env.read(nw(node, F_TYPE), ptr=True)
                    yield from env.compute(COMPUTE_PER_DESCEND)
                    if ntype == INTERNAL:
                        m = yield from env.read(nw(node, F_MASS), ptr=True)
                        yield from env.write(nw(node, F_MASS), m + mb, ptr=True)
                        cx = np.empty(3)
                        for k in range(3):
                            c = yield from env.read(nw(node, F_COM + k), ptr=True)
                            yield from env.write(
                                nw(node, F_COM + k), c + mb * p[k], ptr=True
                            )
                            cx[k] = yield from env.read(
                                nw(node, F_CENTER + k), ptr=True
                            )
                        half = yield from env.read(nw(node, F_HALF), ptr=True)
                        oct_no = int(p[0] > cx[0]) | (int(p[1] > cx[1]) << 1) | (
                            int(p[2] > cx[2]) << 2
                        )
                        child = int(
                            (yield from env.read(nw(node, F_CHILD + oct_no), ptr=True))
                        )
                        if child == 0:
                            idx = alloc_node()
                            quarter = half / 2.0
                            yield from env.write(nw(idx, F_TYPE), LEAF, ptr=True)
                            for k in range(3):
                                off = quarter if (oct_no >> k) & 1 else -quarter
                                yield from env.write(
                                    nw(idx, F_CENTER + k), cx[k] + off, ptr=True
                                )
                            yield from env.write(nw(idx, F_HALF), quarter, ptr=True)
                            yield from env.write(nw(idx, F_NBODY), 1.0, ptr=True)
                            yield from env.write(nw(idx, F_BODIES), float(b), ptr=True)
                            yield from env.write(
                                nw(node, F_CHILD + oct_no), float(idx), ptr=True
                            )
                            yield from env.unlock(lock_of(node))
                            break
                        yield from env.unlock(lock_of(node))
                        node = child
                        continue
                    # leaf
                    nbody = int((yield from env.read(nw(node, F_NBODY), ptr=True)))
                    if nbody < LEAF_CAP:
                        yield from env.write(
                            nw(node, F_BODIES + nbody), float(b), ptr=True
                        )
                        yield from env.write(nw(node, F_NBODY), nbody + 1.0, ptr=True)
                        yield from env.unlock(lock_of(node))
                        break
                    # split the leaf, then retry this (now internal) node
                    residents = []
                    for s in range(nbody):
                        residents.append(
                            int((yield from env.read(nw(node, F_BODIES + s), ptr=True)))
                        )
                    yield from env.write(nw(node, F_TYPE), INTERNAL, ptr=True)
                    yield from env.write(nw(node, F_NBODY), 0.0, ptr=True)
                    cx = np.empty(3)
                    for k in range(3):
                        cx[k] = yield from env.read(nw(node, F_CENTER + k), ptr=True)
                    half = yield from env.read(nw(node, F_HALF), ptr=True)
                    quarter = half / 2.0
                    for rb in residents:
                        rp = np.empty(3)
                        for k in range(3):
                            rp[k] = yield from env.read(body_addr(rb, k))
                        rm = yield from env.read(body_addr(rb, 9))
                        m = yield from env.read(nw(node, F_MASS), ptr=True)
                        yield from env.write(nw(node, F_MASS), m + rm, ptr=True)
                        for k in range(3):
                            c = yield from env.read(nw(node, F_COM + k), ptr=True)
                            yield from env.write(
                                nw(node, F_COM + k), c + rm * rp[k], ptr=True
                            )
                        oct_no = int(rp[0] > cx[0]) | (int(rp[1] > cx[1]) << 1) | (
                            int(rp[2] > cx[2]) << 2
                        )
                        child = int(
                            (yield from env.read(nw(node, F_CHILD + oct_no), ptr=True))
                        )
                        if child == 0:
                            child = alloc_node()
                            yield from env.write(nw(child, F_TYPE), LEAF, ptr=True)
                            for k in range(3):
                                off = quarter if (oct_no >> k) & 1 else -quarter
                                yield from env.write(
                                    nw(child, F_CENTER + k), cx[k] + off, ptr=True
                                )
                            yield from env.write(nw(child, F_HALF), quarter, ptr=True)
                            yield from env.write(
                                nw(node, F_CHILD + oct_no), float(child), ptr=True
                            )
                        cb = int((yield from env.read(nw(child, F_NBODY), ptr=True)))
                        yield from env.write(
                            nw(child, F_BODIES + cb), float(rb), ptr=True
                        )
                        yield from env.write(nw(child, F_NBODY), cb + 1.0, ptr=True)
                        yield from env.compute(COMPUTE_PER_DESCEND)
                    yield from env.unlock(lock_of(node))
                    # loop back: node is now internal
            yield from env.barrier()

            # ---- force traversal (read-only) -------------------------
            for b in mine:
                p = my_pos[b]
                acc = np.zeros(3)
                stack = [base]
                while stack:
                    node = stack.pop()
                    yield from env.compute(params.compute_per_visit)
                    ntype = yield from env.read(nw(node, F_TYPE), ptr=True)
                    if ntype == LEAF:
                        nbody = int((yield from env.read(nw(node, F_NBODY), ptr=True)))
                        for s in range(nbody):
                            ob = int(
                                (yield from env.read(nw(node, F_BODIES + s), ptr=True))
                            )
                            if ob == b:
                                continue
                            op = np.empty(3)
                            for k in range(3):
                                op[k] = yield from env.read(body_addr(ob, k))
                            om = yield from env.read(body_addr(ob, 9))
                            yield from env.compute(COMPUTE_PER_DIRECT)
                            d = op - p
                            r2 = float(d @ d) + SOFTEN
                            acc += om * d / (r2 * np.sqrt(r2))
                    elif ntype == INTERNAL:
                        m = yield from env.read(nw(node, F_MASS), ptr=True)
                        com = np.empty(3)
                        for k in range(3):
                            com[k] = yield from env.read(nw(node, F_COM + k), ptr=True)
                        com /= m
                        half = yield from env.read(nw(node, F_HALF), ptr=True)
                        d = com - p
                        r = np.sqrt(float(d @ d)) + 1e-12
                        if (2.0 * half) / r < THETA:
                            yield from env.compute(COMPUTE_PER_DIRECT)
                            r2 = r * r + SOFTEN
                            acc += m * d / (r2 * np.sqrt(r2))
                        else:
                            for k in range(8):
                                child = int(
                                    (yield from env.read(
                                        nw(node, F_CHILD + k), ptr=True
                                    ))
                                )
                                if child:
                                    stack.append(child)
                for k in range(3):
                    yield from env.write(body_addr(b, 6 + k), acc[k])
            yield from env.barrier()

            # ---- update (owner computes) ------------------------------
            for b in mine:
                for k in range(3):
                    a = yield from env.read(body_addr(b, 6 + k))
                    v = yield from env.read(body_addr(b, 3 + k))
                    p = yield from env.read(body_addr(b, k))
                    v += a * DT
                    yield from env.write(body_addr(b, 3 + k), v)
                    yield from env.write(body_addr(b, k), p + v * DT)
            yield from env.barrier()

    rt.spawn_all(worker)
    return bodies, nodes


def run(
    config: MachineConfig,
    params: BarnesHutParams | None = None,
    costs: CostModel | None = None,
    options: RunOptions | None = None,
) -> AppRun:
    params = params if params is not None else BarnesHutParams()
    with Runtime(config, costs, options=options) as rt:
        bodies, nodes = build(rt, params)
        result = rt.run()
        snap = bodies.snapshot()
        node_snap = nodes.snapshot()
    reference = golden(params)
    n = params.n_bodies
    measured = np.stack([snap[i * 16 : i * 16 + 3] for i in range(n)])
    max_error = float(np.max(np.abs(measured - reference)))

    # Root invariants of the final tree: mass and center-of-mass sums are
    # insertion-order independent.
    pool = params.pool_per_iteration
    last_base = (params.iterations - 1) * pool * NODE_WORDS
    root_mass = node_snap[last_base + F_MASS]
    total_mass = float(params.initial_bodies()[1].sum())
    return AppRun(
        name="barnes-hut",
        result=result,
        valid=max_error < 1e-6 and abs(root_mass - total_mass) < 1e-9,
        max_error=max_error,
        aux={"n_bodies": n, "root_mass": float(root_mass)},
    )
