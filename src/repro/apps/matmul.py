"""Matrix Multiply: C = A x B (Figure 7 of the paper).

Row-blocked: worker p computes the rows of C it owns, reading its rows of
A and the whole of B.  B is read-shared and never written, so each SSMP
replicates it once and keeps it; C rows are written only by their owner.
This gives the paper's result: essentially zero breakup penalty and a
performance curve independent of cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.common import AppRun, block_range
from repro.params import WORD_BYTES, CostModel, MachineConfig
from repro.runtime import RunOptions, Runtime

__all__ = ["MatmulParams", "golden", "build", "run"]

@dataclass(frozen=True)
class MatmulParams:
    """Problem size (paper: 256x256; scaled by default)."""

    n: int = 32
    seed: int = 42
    #: cycles per multiply-accumulate; calibrated so the scaled matrices
    #: keep the paper's compute-to-communication ratio
    compute_per_mac: int = 1000

    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        a = rng.integers(-4, 5, size=(self.n, self.n)).astype(np.float64)
        b = rng.integers(-4, 5, size=(self.n, self.n)).astype(np.float64)
        return a, b


@lru_cache(maxsize=None)
def golden(params: MatmulParams) -> np.ndarray:
    """Sequential reference ``A @ B``, memoized per ``params`` and
    returned read-only."""
    a, b = params.operands()
    product = a @ b
    product.setflags(write=False)
    return product


def build(rt: Runtime, params: MatmulParams):
    n = params.n
    config = rt.config
    nprocs = config.total_processors
    wpp = config.words_per_page
    # Rows of A and C are padded to page boundaries, reproducing the
    # paper's geometry where a 256-word row spans whole pages and no two
    # workers ever write the same page.
    row_stride = ((n + wpp - 1) // wpp) * wpp

    def row_home(pg: int) -> int:
        row = min(n - 1, pg * wpp // row_stride)
        per = (n + nprocs - 1) // nprocs
        return min(nprocs - 1, row // per)

    a_mat, b_mat = params.operands()
    arr_a = rt.array("A", n * row_stride, home=row_home)
    arr_b = rt.array("B", n * n)  # interleaved: read by everyone
    arr_c = rt.array("C", n * row_stride, home=row_home)
    init_a = np.zeros(n * row_stride)
    init_c = np.zeros(n * row_stride)
    for i in range(n):
        init_a[i * row_stride : i * row_stride + n] = a_mat[i]
    arr_a.init(init_a)
    arr_b.init(b_mat.ravel())
    arr_c.init(init_c)

    def worker(env):
        rows = block_range(n, nprocs, env.pid)
        b_stride = n * WORD_BYTES
        for i in rows:
            a_base = arr_a.addr(i * row_stride)
            for j in range(n):
                # Each dot product reads row i of A as one block (a line
                # walk) and then column j of B, a strided read_many; the
                # n multiply-accumulates are one aggregated compute and
                # one numpy dot.
                row = yield from env.read_block(a_base, n)
                b_addr = arr_b.addr(j)
                col = yield from env.read_many(
                    range(b_addr, b_addr + n * b_stride, b_stride)
                )
                yield from env.compute(n * params.compute_per_mac)
                acc = float(np.dot(row, col))
                yield from env.write(arr_c.addr(i * row_stride + j), acc)
        yield from env.barrier()

    rt.spawn_all(worker)
    return arr_c


def run(
    config: MachineConfig,
    params: MatmulParams | None = None,
    costs: CostModel | None = None,
    options: RunOptions | None = None,
) -> AppRun:
    params = params if params is not None else MatmulParams()
    with Runtime(config, costs, options=options) as rt:
        arr_c = build(rt, params)
        result = rt.run()
        snap = arr_c.snapshot()
    n = params.n
    wpp = config.words_per_page
    row_stride = ((n + wpp - 1) // wpp) * wpp
    reference = golden(params)
    measured = np.stack([snap[i * row_stride : i * row_stride + n] for i in range(n)])
    max_error = float(np.max(np.abs(measured - reference)))
    return AppRun(
        name="matmul",
        result=result,
        valid=max_error < 1e-9,
        max_error=max_error,
        aux={"n": params.n},
    )
