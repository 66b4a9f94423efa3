"""Shared infrastructure for the application suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.params import MachineConfig
from repro.runtime import RunResult

__all__ = [
    "AppRun",
    "check_valid",
    "block_range",
    "block_owner",
    "page_home_block",
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
        check_valid(self.name, self.valid, self.max_error)
        return self


def check_valid(name: str, valid: bool, max_error: float) -> None:
    """Fail unless an app's output matched its sequential golden run."""
    if not valid:
        raise AssertionError(
            f"{name}: output diverged from the sequential golden run "
            f"(max_error={max_error})"
        )


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
