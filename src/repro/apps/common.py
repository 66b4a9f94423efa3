"""Shared infrastructure for the application suite."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.params import CostModel, MachineConfig
from repro.runtime import DEFAULT_QUANTUM, RunOptions, RunResult, Runtime

__all__ = [
    "AppRun",
    "block_range",
    "block_owner",
    "page_home_block",
    "make_runtime",
]


@dataclass
class AppRun:
    """Result of one simulated application execution."""

    name: str
    result: RunResult
    valid: bool
    max_error: float = 0.0
    aux: dict[str, Any] = field(default_factory=dict)

    @property
    def total_time(self) -> int:
        return self.result.total_time

    def require_valid(self) -> "AppRun":
        if not self.valid:
            raise AssertionError(
                f"{self.name}: output diverged from the sequential golden run "
                f"(max_error={self.max_error})"
            )
        return self


def block_range(n: int, nworkers: int, worker: int) -> range:
    """Contiguous block partition of ``n`` items.

    The paper's apps distribute their main arrays in contiguous blocks;
    when ``n`` is not divisible (Water's 343 molecules), the first ``n %
    nworkers`` workers get one extra item — the source of the load
    imbalance the paper discusses in section 5.2.1.
    """
    q, r = divmod(n, nworkers)
    lo = worker * q + min(worker, r)
    hi = lo + q + (1 if worker < r else 0)
    return range(lo, hi)


def block_owner(n: int, nworkers: int, item: int) -> int:
    """Inverse of :func:`block_range`: which worker owns ``item``."""
    q, r = divmod(n, nworkers)
    boundary = r * (q + 1)
    if item < boundary:
        return item // (q + 1)
    if q == 0:
        return nworkers - 1
    return r + (item - boundary) // q


def page_home_block(
    config: MachineConfig, n_items: int, words_per_item: int
):
    """Home map for an array distributed block-wise over processors.

    Page ``pg`` is homed at the processor owning the first item stored in
    that page, so each worker's partition lives in its own memory.
    """
    wpp = config.page_size // 8
    nprocs = config.total_processors

    def home(pg: int) -> int:
        first_word = pg * wpp
        item = min(n_items - 1, first_word // words_per_item)
        return block_owner(n_items, nprocs, item)

    return home


def make_runtime(
    config: MachineConfig,
    costs: CostModel | None = None,
    quantum: int = DEFAULT_QUANTUM,
    options: RunOptions | None = None,
    **changes,
) -> Runtime:
    """The app's Runtime under ``options`` (None: the environment's),
    with ``changes`` — :class:`RunOptions` fields such as
    ``fastpath=False`` — applied on top."""
    if changes:
        options = replace(options or RunOptions.from_env(), **changes)
    return Runtime(config, costs, quantum, options=options)
