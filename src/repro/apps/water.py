"""Water: n-squared molecular dynamics (Figure 9 of the paper).

A faithful scaled-down analogue of the SPLASH Water benchmark, keeping
every sharing feature the paper's analysis relies on:

* a **global molecule array** distributed block-wise across processors,
  accessed *linearly starting from the portion each processor owns*
  (half-shell pair assignment) — neighbouring processors share adjacent
  portions at fine grain, which is exactly the multigrain locality the
  MGS system rewards;
* **per-molecule locks** used to accumulate forces — ownership tends to
  pass among processors in the same SSMP;
* a **global statistics structure** (potential energy) on one processor's
  page, whose home receives more coherence traffic than anyone else —
  the paper's software-coherence load imbalance;
* a molecule count that does **not divide the processor count** (343 in
  the paper), creating load imbalance visible as barrier time.

Each molecule is a 16-word record (positions, velocities, forces,
padding), so a 1 KB page holds 8 molecules and force writes false-share
pages with position reads at page grain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.common import (
    AppRun,
    block_owner,
    block_range,
    page_home_block,
)
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime

__all__ = ["WaterParams", "golden", "build", "run"]

#: words per molecule record: pos[3] vel[3] force[3] + padding
MOL_WORDS = 16
POS, VEL, FRC = 0, 3, 6

#: cycles to evaluate one pair interaction (the O(N^2) kernel)
COMPUTE_PER_PAIR = 260
#: cycles for the per-molecule integration step
COMPUTE_PER_UPDATE = 120
DT = 0.002
EPS = 0.05


@dataclass(frozen=True)
class WaterParams:
    """Problem size (paper: 343 molecules, 2 iterations; scaled)."""

    n_molecules: int = 67  # odd and not divisible by 32, like 343
    iterations: int = 2
    seed: int = 11
    #: cycles per pair interaction; calibrated so the scaled problem
    #: keeps the paper's compute-to-communication ratio
    compute_per_pair: int = 6500

    def initial_positions(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.uniform(0.0, 4.0, size=(self.n_molecules, 3))


def _pair_force(pi: np.ndarray, pj: np.ndarray) -> np.ndarray:
    """Soft-sphere repulsion: cheap, smooth, and numerically tame."""
    d = pi - pj
    r2 = float(d @ d) + EPS
    return d / (r2 * r2)


def _partners(i: int, n: int) -> range:
    """Half-shell method: molecule i interacts with the next (n-1)/2
    molecules cyclically; with odd n every unordered pair appears exactly
    once and the load is perfectly balanced across molecules."""
    return range(i + 1, i + 1 + (n - 1) // 2)


@lru_cache(maxsize=None)
def golden(params: WaterParams) -> tuple[np.ndarray, float]:
    """Sequential reference: positions after all iterations, final PE.

    Memoized per ``params``; the positions come back read-only.
    """
    n = params.n_molecules
    pos = params.initial_positions().copy()
    vel = np.zeros_like(pos)
    pe = 0.0
    for _ in range(params.iterations):
        force = np.zeros_like(pos)
        pe = 0.0
        for i in range(n):
            for jj in _partners(i, n):
                j = jj % n
                f = _pair_force(pos[i], pos[j])
                force[i] += f
                force[j] -= f
                d = pos[i] - pos[j]
                pe += 1.0 / (float(d @ d) + EPS)
        vel += force * DT
        pos += vel * DT
    pos.setflags(write=False)
    return pos, pe


def build(rt: Runtime, params: WaterParams):
    n = params.n_molecules
    config = rt.config
    nprocs = config.total_processors

    mols = rt.array(
        "molecules",
        n * MOL_WORDS,
        home=page_home_block(config, n, MOL_WORDS),
    )
    init = np.zeros(n * MOL_WORDS)
    pos0 = params.initial_positions()
    for i in range(n):
        init[i * MOL_WORDS + POS : i * MOL_WORDS + POS + 3] = pos0[i]
    mols.init(init)

    # Global statistics: potential energy, homed on processor 0 (its home
    # receives disproportionate coherence traffic, as in the paper).
    stats = rt.array("stats", 1, home=0)
    stats.init([0.0])

    mol_locks = [
        rt.create_lock(home_cluster=config.cluster_of(block_owner(n, nprocs, i)))
        for i in range(n)
    ]
    stats_lock = rt.create_lock(home_cluster=0)

    def mol_addr(i: int, field: int) -> int:
        return mols.addr(i * MOL_WORDS + field)

    def worker(env):
        mine = block_range(n, nprocs, env.pid)
        for _it in range(params.iterations):
            # ---- force phase ------------------------------------------
            local_force: dict[int, np.ndarray] = {}
            local_pe = 0.0
            # The global PE is zero on entry: initially from stats.init,
            # afterwards from the previous update phase's reset — both
            # ordered before this phase by a barrier.  (Resetting here
            # instead would race the other processors' accumulations.)
            pos_cache: dict[int, np.ndarray] = {}

            def read_pos(i):
                cached = pos_cache.get(i)
                if cached is not None:
                    return cached
                p = np.asarray(
                    (yield from env.read_block(mol_addr(i, POS), 3))
                )
                pos_cache[i] = p
                return p

            for i in mine:
                pi = yield from read_pos(i)
                for jj in _partners(i, n):
                    j = jj % n
                    pj = yield from read_pos(j)
                    yield from env.compute(params.compute_per_pair)
                    f = _pair_force(pi, pj)
                    local_force.setdefault(i, np.zeros(3))
                    local_force.setdefault(j, np.zeros(3))
                    local_force[i] += f
                    local_force[j] -= f
                    d = pi - pj
                    local_pe += 1.0 / (float(d @ d) + EPS)

            # Accumulate into the shared records under per-molecule locks,
            # staggered per processor to avoid lock convoys.
            items = sorted(local_force)
            if items:
                start = (env.pid * max(1, len(items) // nprocs)) % len(items)
                items = items[start:] + items[:start]
            for j in items:
                yield from env.lock(mol_locks[j])
                current = yield from env.read_block(mol_addr(j, FRC), 3)
                yield from env.write_block(
                    mol_addr(j, FRC), np.asarray(current) + local_force[j]
                )
                yield from env.unlock(mol_locks[j])

            if local_pe != 0.0:
                yield from env.lock(stats_lock)
                current = yield from env.read(stats.addr(0))
                yield from env.write(stats.addr(0), current + local_pe)
                yield from env.unlock(stats_lock)

            yield from env.barrier()

            # ---- update phase -----------------------------------------
            # Reset the global PE for the next iteration (proc 0).  The
            # barriers on both sides order the reset after this
            # iteration's accumulations and before the next one's.
            if env.pid == 0 and _it + 1 < params.iterations:
                yield from env.write(stats.addr(0), 0.0)
            for i in mine:
                # One 9-word record read (pos, vel, force), one aggregated
                # integration compute, one 9-word write-back with the
                # forces zeroed for the next iteration.
                rec = np.asarray(
                    (yield from env.read_block(mol_addr(i, POS), 9))
                )
                p, v, f = rec[POS : POS + 3], rec[VEL : VEL + 3], rec[FRC:]
                yield from env.compute(COMPUTE_PER_UPDATE)
                v = v + f * DT
                out = np.concatenate([p + v * DT, v, np.zeros(3)])
                yield from env.write_block(mol_addr(i, POS), out)
            yield from env.barrier()

    rt.spawn_all(worker)
    return mols, stats


def run(
    config: MachineConfig,
    params: WaterParams | None = None,
    costs: CostModel | None = None,
    options: RunOptions | None = None,
) -> AppRun:
    params = params if params is not None else WaterParams()
    with Runtime(config, costs, options=options) as rt:
        mols, stats = build(rt, params)
        result = rt.run()
        snap = mols.snapshot()
        pe = float(stats.snapshot()[0])
    ref_pos, ref_pe = golden(params)
    n = params.n_molecules
    measured_pos = np.stack(
        [snap[i * MOL_WORDS + POS : i * MOL_WORDS + POS + 3] for i in range(n)]
    )
    pos_error = float(np.max(np.abs(measured_pos - ref_pos)))
    pe_error = abs(pe - ref_pe) / max(abs(ref_pe), 1.0)
    return AppRun(
        name="water",
        result=result,
        valid=pos_error < 1e-8 and pe_error < 1e-8,
        max_error=max(pos_error, pe_error),
        aux={"n_molecules": n, "pe": ref_pe},
    )
