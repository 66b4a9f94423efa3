"""Parallel benchmark driver: farm independent simulations to processes.

Every simulated point — one ``(app, cluster size)`` pair — is a closed,
deterministic universe: it shares no state with any other point, and its
result depends only on its arguments.  That makes the figure sweeps
embarrassingly parallel, so this module fans them out to worker
processes while keeping the *output* exactly what the serial loop
produces: results are collected in input order regardless of execution
order, so a parallel sweep is byte-identical to a serial one (pinned by
``tests/test_parallel.py``).

Job count resolution, lowest priority last:

1. an explicit ``jobs=`` argument (CLI ``--jobs``);
2. ``RunOptions.jobs`` (the ``REPRO_JOBS`` environment variable, which
   pytest ``--jobs`` sets);
3. serial (1).

``jobs=0`` (or ``REPRO_JOBS=0``) means "all cores".  On a single-core
machine ``parallel_map`` always runs in-process (with a one-line notice
on stderr when that overrides an explicit multi-job request): forking
buys nothing there and the committed perf baseline shows it strictly
slower (0.178s parallel vs 0.150s serial for the smoke sweep).  The
pool uses the ``fork`` start method where available so workers inherit
``sys.path`` and loaded modules; on platforms without ``fork`` the
default start method is used and arguments travel by pickle (everything
passed here — app parameter dataclasses, configs, result dataclasses —
is picklable).

The pool is **persistent**: the first parallel call forks it, and every
later call from the sweep engine, ``repro.bench.compare``, or the
``repro.serve`` daemon reuses the same workers instead of paying a
fork-and-import per sweep.  Two things keep reuse invisible to callers:

* a call asking for fewer jobs than the pool has workers is *windowed*
  — at most ``jobs`` futures are in flight at once, refilled in input
  order as results land, so concurrency (and thus memory and CPU
  footprint) matches what the caller asked for;
* workers never read settings of their own: the caller resolves a
  :class:`~repro.runtime.RunOptions` and ships it as an argument of
  every job, so a worker forked long ago runs each job exactly as the
  caller asked (pinned by ``tests/test_parallel.py``).

``shutdown_pool`` tears the workers down (registered with ``atexit``;
tests use it to force a fresh pool).

Items are submitted in input order.  In a cluster-size sweep that
already starts the slowest point first: C=1, where every coherence
action crosses the inter-SSMP network.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Sequence

from repro.runtime import RunOptions

__all__ = ["resolve_jobs", "parallel_map", "shutdown_pool"]


def resolve_jobs(jobs: int | None = None) -> int:
    """Number of worker processes to use (see module docstring)."""
    if jobs is None:
        jobs = RunOptions.from_env().jobs
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_WARNED_SINGLE_CPU = False


def _executor(workers: int) -> ProcessPoolExecutor:
    """The shared pool, growing (never shrinking) to ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        if "fork" in mp.get_all_start_methods():
            ctx = mp.get_context("fork")
        else:  # pragma: no cover - platform-dependent
            ctx = mp.get_context()
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; re-forks on next use)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def parallel_map(
    fn: Callable[..., Any],
    arg_tuples: Sequence[tuple],
    jobs: int | None = None,
) -> list[Any]:
    """``[fn(*args) for args in arg_tuples]`` over worker processes.

    Results come back in input order regardless of completion order, so
    callers see exactly the serial result list.  ``fn`` must be a
    module-level function (workers import it by reference).  With one
    job, one item, or one CPU this is the plain list comprehension — no
    pool, no pickling.
    """
    items = list(arg_tuples)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1 or (os.cpu_count() or 1) <= 1:
        global _WARNED_SINGLE_CPU
        if (
            jobs > 1
            and len(items) > 1
            and (os.cpu_count() or 1) <= 1
            and not _WARNED_SINGLE_CPU
        ):
            _WARNED_SINGLE_CPU = True
            print(
                f"repro.bench.parallel: single-CPU machine, running the "
                f"jobs={jobs} sweep in-process (serial)",
                file=sys.stderr,
            )
        return [fn(*args) for args in items]
    workers = min(jobs, len(items))
    pool = _executor(workers)
    # Windowed submission: the persistent pool may have more workers
    # than this call's job count, so cap in-flight futures at `workers`
    # and refill in input order as results land.  Results are stored by
    # input index, and errors are re-raised by lowest input index after
    # the window drains — exactly the serial/one-shot pool behavior.
    pending = iter(range(len(items)))
    inflight: dict[Any, int] = {}
    results: list[Any] = [None] * len(items)
    errors: dict[int, BaseException] = {}

    def refill() -> None:
        for i in pending:
            inflight[pool.submit(fn, *items[i])] = i
            return

    try:
        for _ in range(min(workers, len(items))):
            refill()
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for fut in done:
                i = inflight.pop(fut)
                exc = fut.exception()
                if exc is not None:
                    errors[i] = exc
                else:
                    results[i] = fut.result()
                refill()
    except BaseException:
        # A dead worker (or interrupt) leaves the executor unusable;
        # discard it so the next call forks a fresh one.
        shutdown_pool()
        raise
    if errors:
        raise errors[min(errors)]
    return results
