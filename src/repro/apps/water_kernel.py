"""Water-kernel: the force-interaction kernel, plain and tiled (Fig. 12).

The kernel performs the N-squared pair-wise force interactions that
dominate Water's execution time.  Two variants are provided:

* **unoptimized** — the original loop structure the paper describes:
  "each iteration through the loop performs a pair-wise interaction and
  writes both molecules".  Every pair update locks the two molecules in
  turn, and each unlock is a release point — so under software page
  coherence every interaction pays critical-section dilation, and write
  sharing crosses SSMP boundaries freely.  This is what gives the paper's
  334% breakup penalty.

* **optimized** — the paper's hand loop transformation (section 5.2.3):
  the molecule array is tiled with *two tiles per SSMP*; computation
  proceeds in phases and in each phase every SSMP owns an exclusive pair
  of tiles (a round-robin tournament schedule).  Within a phase all
  sharing stays inside the SSMP: processors write pair contributions to
  per-processor scratch regions (no locks), and an intra-SSMP reduction
  folds them into the molecule records through hardware cache coherence.
  Only page-grain communication remains at phase boundaries, dropping
  the breakup penalty to the paper's 26% while a large multigrain
  potential survives.

Both variants compute exactly the same pair set, so they validate
against the same sequential golden forces.  Molecule records are 64
words (512 bytes) — close to the real Water molecule record — so a tile
spans several pages and phase-boundary traffic is page-grain, as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.common import AppRun, block_range
from repro.apps.water import _pair_force
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime

__all__ = ["WaterKernelParams", "golden", "build", "run", "tournament_rounds"]

#: words per molecule record (512 B, close to SPLASH Water's record)
MOL_WORDS = 64
POS, FRC = 0, 3


@dataclass(frozen=True)
class WaterKernelParams:
    """Problem size (paper: 512 molecules, 1 iteration; scaled).

    ``n_molecules`` must be divisible by twice the number of SSMPs at
    every cluster size swept (256 covers every power of two up to 64
    tiles, i.e. cluster size 1 on 32 processors).
    """

    n_molecules: int = 256
    optimized: bool = False
    seed: int = 23
    #: cycles per pair interaction (see repro.apps.water)
    compute_per_pair: int = 6500

    def initial_positions(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.uniform(0.0, 4.0, size=(self.n_molecules, 3))


def _half_shell(i: int, n: int) -> list[int]:
    """Partners of molecule ``i`` for even ``n``: the next ``n/2 - 1``
    molecules cyclically, plus the antipode once (for i < n/2), so every
    unordered pair appears exactly once across all i."""
    half = n // 2
    partners = [(i + d) % n for d in range(1, half)]
    if i < half:
        partners.append(i + half)
    return partners


@lru_cache(maxsize=None)
def golden(params: WaterKernelParams) -> np.ndarray:
    """Sequential reference: total force on every molecule.

    Memoized per ``params``; the forces come back read-only.
    """
    n = params.n_molecules
    pos = params.initial_positions()
    force = np.zeros_like(pos)
    for i in range(n):
        for j in range(i + 1, n):
            f = _pair_force(pos[i], pos[j])
            force[i] += f
            force[j] -= f
    force.setflags(write=False)
    return force


def tournament_rounds(n_tiles: int) -> list[list[tuple[int, int]]]:
    """Round-robin tournament (circle method): ``n_tiles - 1`` rounds of
    ``n_tiles / 2`` disjoint tile pairs covering every unordered pair
    exactly once."""
    if n_tiles % 2:
        raise ValueError("n_tiles must be even")
    arr = list(range(n_tiles))
    rounds = []
    for _ in range(n_tiles - 1):
        rounds.append([(arr[i], arr[n_tiles - 1 - i]) for i in range(n_tiles // 2)])
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return rounds


def build(rt: Runtime, params: WaterKernelParams):
    n = params.n_molecules
    config = rt.config
    nprocs = config.total_processors
    nclusters = config.num_clusters
    wpp = config.words_per_page

    # Tile geometry: two tiles per SSMP, page-aligned so that exclusive
    # tile access is exclusive page access.
    n_tiles = 2 * nclusters
    tile_mols = n // n_tiles
    if n % n_tiles:
        raise ValueError("n_molecules must divide evenly into 2 tiles per SSMP")
    pages_per_tile = (tile_mols * MOL_WORDS + wpp - 1) // wpp
    tile_stride_words = pages_per_tile * wpp

    def tile_of(i: int) -> int:
        return i // tile_mols

    def mol_word(i: int, field: int) -> int:
        tile = tile_of(i)
        within = i - tile * tile_mols
        return tile * tile_stride_words + within * MOL_WORDS + field

    def home(pg: int) -> int:
        tile = min(n_tiles - 1, pg // pages_per_tile)
        cluster = (tile // 2) % nclusters
        # Interleave the tile's pages across the owning SSMP's processors
        # so protocol servicing load is spread (as the real system's
        # per-processor memories would be used).
        return cluster * config.cluster_size + pg % config.cluster_size

    mols = rt.array("kernel_mols", n_tiles * tile_stride_words, home=home)
    init = np.zeros(n_tiles * tile_stride_words)
    pos0 = params.initial_positions()
    for i in range(n):
        init[mol_word(i, POS) : mol_word(i, POS) + 3] = pos0[i]
    mols.init(init)

    def read_pos(env, cache, i):
        cached = cache.get(i)
        if cached is not None:
            return cached
        p = np.empty(3)
        for k in range(3):
            p[k] = yield from env.read(mols.addr(mol_word(i, POS) + k))
        cache[i] = p
        return p

    # ------------------------------------------------------------------
    # unoptimized: per-pair locking, as in the original Water loop
    # ------------------------------------------------------------------

    mol_locks = [
        rt.create_lock(home_cluster=(tile_of(i) // 2) % nclusters) for i in range(n)
    ]

    def add_force(env, j, delta):
        yield from env.lock(mol_locks[j])
        for k in range(3):
            addr = mols.addr(mol_word(j, FRC) + k)
            current = yield from env.read(addr)
            yield from env.write(addr, current + delta[k])
        yield from env.unlock(mol_locks[j])

    def unoptimized_worker(env):
        mine = block_range(n, nprocs, env.pid)
        cache: dict[int, np.ndarray] = {}
        for i in mine:
            for j in _half_shell(i, n):
                pi = yield from read_pos(env, cache, i)
                pj = yield from read_pos(env, cache, j)
                yield from env.compute(params.compute_per_pair)
                f = _pair_force(pi, pj)
                # The original loop writes both molecules of the pair.
                yield from add_force(env, i, f)
                yield from add_force(env, j, -f)
        yield from env.barrier()

    # ------------------------------------------------------------------
    # optimized: exclusive tiles + intra-SSMP scratch reduction
    # ------------------------------------------------------------------

    slots = 2 * tile_mols  # molecules an SSMP touches per phase
    scratch_stride = ((slots * 3 + wpp - 1) // wpp) * wpp
    scratch = rt.array(
        "kernel_scratch",
        nprocs * scratch_stride,
        home=lambda pg: min(nprocs - 1, pg * wpp // scratch_stride),
    )

    def scratch_word(pid: int, slot: int, k: int) -> int:
        return pid * scratch_stride + slot * 3 + k

    def tile_pairs(a: int, b: int) -> list[tuple[int, int]]:
        mols_a = range(a * tile_mols, (a + 1) * tile_mols)
        mols_b = range(b * tile_mols, (b + 1) * tile_mols)
        return [(i, j) for i in mols_a for j in mols_b]

    def self_pairs(t: int) -> list[tuple[int, int]]:
        base = t * tile_mols
        return [
            (base + i, base + j)
            for i in range(tile_mols)
            for j in range(i + 1, tile_mols)
        ]

    rounds = tournament_rounds(n_tiles)

    def optimized_worker(env):
        my_cluster = env.cluster
        cluster_procs = list(config.processors_of(my_cluster))
        lane = env.pid - cluster_procs[0]
        nlanes = len(cluster_procs)
        for round_no, round_pairs in enumerate(rounds):
            a, b = round_pairs[my_cluster]

            def slot_mol(slot: int) -> int:
                if slot < tile_mols:
                    return a * tile_mols + slot
                return b * tile_mols + (slot - tile_mols)

            pairs = tile_pairs(a, b)
            if round_no == 0:
                pairs = pairs + self_pairs(a) + self_pairs(b)
            my_pairs = pairs[lane::nlanes]

            cache: dict[int, np.ndarray] = {}
            forces: dict[int, np.ndarray] = {}
            for i, j in my_pairs:
                pi = yield from read_pos(env, cache, i)
                pj = yield from read_pos(env, cache, j)
                yield from env.compute(params.compute_per_pair)
                f = _pair_force(pi, pj)
                forces.setdefault(i, np.zeros(3))
                forces.setdefault(j, np.zeros(3))
                forces[i] += f
                forces[j] -= f

            # Publish contributions in my scratch region (my own pages:
            # no locks, no remote writes).
            zero = np.zeros(3)
            for slot in range(slots):
                contribution = forces.get(slot_mol(slot), zero)
                for k in range(3):
                    yield from env.write(
                        scratch.addr(scratch_word(env.pid, slot, k)),
                        contribution[k],
                    )
            yield from env.barrier()

            # Intra-SSMP reduction: fold every lane's contribution into
            # the molecule records of the two exclusive tiles.
            for slot in range(lane, slots, nlanes):
                m = slot_mol(slot)
                total = np.zeros(3)
                for q in cluster_procs:
                    for k in range(3):
                        total[k] += yield from env.read(
                            scratch.addr(scratch_word(q, slot, k))
                        )
                for k in range(3):
                    addr = mols.addr(mol_word(m, FRC) + k)
                    current = yield from env.read(addr)
                    yield from env.write(addr, current + total[k])
            yield from env.barrier()

    rt.spawn_all(optimized_worker if params.optimized else unoptimized_worker)
    return mols, mol_word


def run(
    config: MachineConfig,
    params: WaterKernelParams | None = None,
    costs: CostModel | None = None,
    options: RunOptions | None = None,
) -> AppRun:
    params = params if params is not None else WaterKernelParams()
    with Runtime(config, costs, options=options) as rt:
        mols, mol_word = build(rt, params)
        result = rt.run()
        snap = mols.snapshot()
    reference = golden(params)
    n = params.n_molecules
    measured = np.stack(
        [snap[mol_word(i, FRC) : mol_word(i, FRC) + 3] for i in range(n)]
    )
    max_error = float(np.max(np.abs(measured - reference)))
    return AppRun(
        name="water-kernel-opt" if params.optimized else "water-kernel",
        result=result,
        valid=max_error < 1e-9,
        max_error=max_error,
        aux={"n_molecules": n, "optimized": params.optimized},
    )
