"""Jacobi: 2-D grid relaxation (Figure 6 of the paper).

Row-blocked partition of an N x N grid; each iteration every worker reads
its rows plus the boundary rows of its neighbours from the source grid
and writes the 4-point average into the destination grid, then all
workers meet at a barrier and the grids swap roles.

Sharing pattern: long read/write phases over large contiguous regions
with no intra-phase dependences — the "coarse-grain" behaviour that makes
Jacobi run well regardless of the shared-memory implementation (the paper
measures a 16% breakup penalty and a flat multigrain region).

Execution structure: each relaxation iteration is one barrier-delimited
phase (``Runtime.spawn_phases``), processing whole rows through the
batched ``read_block``/``write_block`` APIs with the per-row stencil
arithmetic done in numpy and the floating-point work charged as one
aggregated ``compute``.  The phases carry no replay keys: every sweep
changes the grid, so no phase ever returns to the machine state it
started from, and digesting the boundaries would only cost time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.common import AppRun, block_range
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime

__all__ = ["JacobiParams", "golden", "build", "run"]



@dataclass(frozen=True)
class JacobiParams:
    """Problem size (paper: 1024x1024, 10 iterations; scaled by default)."""

    n: int = 64
    iterations: int = 10
    #: cycles of floating-point work per grid-point update; the default
    #: emulates the per-point work of the paper's 1024x1024 grid so that
    #: the compute-to-communication ratio matches at the scaled size
    compute_per_point: int = 1300

    def initial_grid(self) -> np.ndarray:
        grid = np.zeros((self.n, self.n))
        # Hot west edge, cold east edge: a classic relaxation setup.
        grid[:, 0] = 100.0
        grid[:, -1] = -100.0
        grid[0, :] = np.linspace(100.0, -100.0, self.n)
        grid[-1, :] = np.linspace(100.0, -100.0, self.n)
        return grid


@lru_cache(maxsize=None)
def golden(params: JacobiParams) -> np.ndarray:
    """Sequential reference: the exact computation the workers perform.

    Memoized per ``params``; the grid comes back read-only.
    """
    src = params.initial_grid()
    dst = src.copy()
    for _ in range(params.iterations):
        dst[1:-1, 1:-1] = 0.25 * (
            src[:-2, 1:-1] + src[2:, 1:-1] + src[1:-1, :-2] + src[1:-1, 2:]
        )
        src, dst = dst, src
    src.setflags(write=False)
    return src


def build(rt: Runtime, params: JacobiParams):
    """Allocate the two grids and spawn one worker per processor."""
    n = params.n
    config = rt.config
    nprocs = config.total_processors
    words_per_row = n

    def row_owner(row: int) -> int:
        per = (n + nprocs - 1) // nprocs
        return min(nprocs - 1, row // per)

    def home(pg: int) -> int:
        first_row = pg * config.words_per_page // words_per_row
        return row_owner(min(n - 1, first_row))

    grid_a = rt.array("gridA", n * n, home=home)
    grid_b = rt.array("gridB", n * n, home=home)
    init = params.initial_grid()
    grid_a.init(init.ravel())
    grid_b.init(init.ravel())
    grids = [grid_a, grid_b]

    def factory(env, it):
        def phase():
            src, dst = grids[it % 2], grids[(it + 1) % 2]
            rows = block_range(n, nprocs, env.pid)
            for i in rows:
                if i == 0 or i == n - 1:
                    continue
                # Whole-row reads: the own and south rows hit the local
                # copy; the north boundary row of the neighbouring worker
                # is the only remote traffic.
                north = yield from env.read_block(src.addr((i - 1) * n), n)
                mid = yield from env.read_block(src.addr(i * n), n)
                south = yield from env.read_block(src.addr((i + 1) * n), n)
                yield from env.compute(params.compute_per_point * (n - 2))
                north = np.asarray(north)
                mid = np.asarray(mid)
                south = np.asarray(south)
                new = 0.25 * (
                    north[1:-1] + south[1:-1] + mid[:-2] + mid[2:]
                )
                yield from env.write_block(dst.addr(i * n + 1), new)
            yield from env.barrier()

        return phase()

    # No replay keys: each sweep rewrites the destination grid, so a
    # phase never ends in its entry state and could never be replayed.
    rt.spawn_phases(factory, params.iterations)
    final = grids[params.iterations % 2]
    return final


def run(
    config: MachineConfig,
    params: JacobiParams | None = None,
    costs: CostModel | None = None,
    options: RunOptions | None = None,
) -> AppRun:
    """Simulate Jacobi and validate against the sequential golden run."""
    params = params if params is not None else JacobiParams()
    with Runtime(config, costs, options=options) as rt:
        final = build(rt, params)
        result = rt.run()
        measured = final.snapshot()
    reference = golden(params).ravel()
    max_error = float(np.max(np.abs(measured - reference)))
    return AppRun(
        name="jacobi",
        result=result,
        valid=max_error < 1e-9,
        max_error=max_error,
        aux={"n": params.n, "iterations": params.iterations},
    )
