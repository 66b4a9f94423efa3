"""Cluster-size sweeps: the engine behind Figures 6-12.

``run_sweep`` is the one way a sweep point executes, whether it comes
from a figure, a cross-engine comparison or a ``repro.serve`` job, and
whether the run cache is on or off.  It looks every point up in the
cache (when there is one), folding each hit as it reads it, runs the
misses plus any verify sample through one
:func:`~repro.bench.parallel.parallel_map` call of the module-level
worker ``_sweep_point``, submitted in input order, and then folds and
stores the misses in input order.  A live point and a cached one are
both a serialized ``AppRun`` (a run-cache entry's ``run``) and go
through the one fold, ``_fold_point``, so the sweep is byte-identical at
any job count, cached or not; an entry the fold cannot read is a miss.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any

from repro.apps import default_params
from repro.apps.common import check_valid
from repro.bench.cache import (
    RunCache,
    app_run_to_dict,
    resolve_cache,
    thread_breakdown,
)
from repro.bench.parallel import parallel_map, resolve_jobs
from repro.metrics import ClusterSweep, SweepPoint, cluster_sizes
from repro.params import CostModel, MachineConfig
from repro.runtime import RunOptions
from repro.runtime.runner import cycle_breakdown
from repro.sync import LockStats

__all__ = ["run_sweep"]


def _fold_point(payload: dict, cluster_size: int) -> SweepPoint:
    """Fold one serialized AppRun into the SweepPoint the figures consume.

    Shared by the live and cached paths, so a cache hit produces the
    byte-identical point a fresh simulation would.  ``cluster_size`` is
    the requested config's: a payload holds no config.
    """
    result = payload["result"]
    lock_stats = result["lock_stats"]
    return SweepPoint(
        cluster_size=cluster_size,
        total_time=result["total_time"],
        breakdown=cycle_breakdown(
            result["total_time"], list(map(thread_breakdown, result["threads"]))
        ),
        lock_hit_ratio=LockStats(**lock_stats).hit_ratio,
        lock_acquires=lock_stats["acquires"],
        protocol_stats=result["protocol_stats"],
        messages_inter_ssmp=result["messages_inter_ssmp"],
        network=result["network_stats"],
        message_flows=result["message_flows"],
        transactions=result["transactions"],
    )


def _fold_hit(cluster_size: int, entry: dict) -> tuple[dict, str, SweepPoint]:
    """A run-cache hit's entry, app name and folded point.

    Runs inside the lookup: a ``KeyError``, ``TypeError`` or
    ``IndexError`` here (an entry missing a field the fold reads, or a
    short thread row) makes the point a miss, which the sweep simulates
    and stores again.
    """
    run = entry["run"]
    check_valid(run["name"], run["valid"], run["max_error"])
    return entry, run["name"], _fold_point(run, cluster_size)


def _sweep_point(
    module_name: str,
    params: Any,
    config: MachineConfig,
    costs: CostModel | None,
    options: RunOptions,
) -> dict:
    """Simulate one cluster-size point; return the serialized AppRun.

    Module-level and addressed by module *name* so the parallel driver
    can ship it to worker processes; the serial path runs the very same
    function, which is what makes parallel output byte-identical.  The
    parent process validates, folds and stores the payload, so workers
    never race on the store.
    """
    run = importlib.import_module(module_name).run(config, params, costs, options)
    return app_run_to_dict(run)


def run_sweep(
    app_module: Any,
    params: Any = None,
    total_processors: int = 32,
    sizes: list[int] | None = None,
    costs: CostModel | None = None,
    name: str | None = None,
    jobs: int | None = None,
    cache: RunCache | bool | None = None,
    cache_verify: bool = False,
    overrides: dict[str, Any] | None = None,
    options: RunOptions | None = None,
) -> ClusterSweep:
    """Run ``app_module.run`` at every cluster size and collect the curve.

    Every point validates the application output against its sequential
    golden run, so a sweep doubles as a protocol correctness check.
    ``params`` None runs the app's defaults (:func:`~repro.apps
    .default_params`), and the points are keyed by those, so a sweep
    that names them and one that does not share every cache entry.

    ``options`` says how to execute every point (fast paths, replay,
    run cache, worker count); None resolves the ``REPRO_*``
    environment once, here in the calling process, and the resolved
    object travels with every point into the pool workers.

    ``jobs`` farms the (independent) cluster-size points to worker
    processes — default ``options.jobs``; the resulting sweep is
    byte-identical at any job count.

    ``cache`` memoizes points in the content-addressed run cache (see
    :mod:`repro.bench.cache`): ``None`` uses ``options.run_cache``,
    ``True``/``False`` force it, or pass a
    :class:`~repro.bench.cache.RunCache` to collect hit/miss counters.
    Cache hits skip the fork entirely; misses run through the same
    worker and pool as an uncached sweep.  ``cache_verify`` re-executes
    a deterministic sample of hits and fails loudly if any cached result
    is not reproduced bit-for-bit.

    ``overrides``, a dict of :class:`MachineConfig` fields, is the one
    way to name the machine: every point simulates
    ``MachineConfig(total_processors=P, cluster_size=C, **overrides)``,
    which is also its cache key.  ``{"protocol": "swdsm"}`` picks the
    coherence engine (see :mod:`repro.protocols`); ``inter_ssmp_delay``,
    ``network``, ``page_size`` and the rest work the same way, and what
    they leave out keeps ``MachineConfig``'s default, the paper's
    platform (1 KB pages, 1000-cycle inter-SSMP delay, section 5.2.1).
    """
    if options is None:
        options = RunOptions.from_env()
    if params is None:
        params = default_params(app_module)
    machine = overrides or {}
    engine = machine.get("protocol", "mgs")
    if sizes is None:
        sizes = cluster_sizes(total_processors)
    module_name = getattr(app_module, "__name__", str(app_module))
    jobs = resolve_jobs(options.jobs if jobs is None else jobs)
    run_cache = resolve_cache(cache, options)
    configs = [
        MachineConfig(total_processors=total_processors, cluster_size=c, **machine)
        for c in sizes
    ]
    # 1. Look every point up and fold each hit; without a cache every
    # point is a miss, and so is an entry the fold cannot read.
    if run_cache is None:
        keyed, hits = [], [None] * len(configs)
    else:
        keyed = [run_cache.key_for(cfg, costs, module_name, params) for cfg in configs]
        hits = [
            run_cache.get(key, functools.partial(_fold_hit, cfg.cluster_size))
            for (key, _), cfg in zip(keyed, configs)
        ]
    # 2. The work list: every miss, plus the verify sample of the hits.
    found = [i for i, hit in enumerate(hits) if hit is not None]
    verify = (
        {found[j] for j in run_cache.verify_sample(len(found))}
        if cache_verify and found
        else set()
    )
    work = [i for i, hit in enumerate(hits) if hit is None or i in verify]
    # 3. One pool call runs it, submitted in input order.
    executed = parallel_map(
        _sweep_point,
        [(module_name, params, configs[i], costs, options) for i in work],
        jobs,
    )
    fresh = dict(zip(work, executed))
    # 4. Collect every point in input order; fold and store the valid misses.
    app_name = name
    points = []
    for i, hit in enumerate(hits):
        if hit is None:
            payload = fresh[i]
            check_valid(payload["name"], payload["valid"], payload["max_error"])
            if run_cache is not None:
                run_cache.put(*keyed[i], payload)
            app, point = payload["name"], _fold_point(payload, configs[i].cluster_size)
        else:
            entry, app, point = hit
            if i in verify:
                run_cache.check_identical(keyed[i][0], entry, fresh[i])
        app_name = app_name or app
        points.append(point)
    return ClusterSweep(
        app=app_name or module_name,
        total_processors=total_processors,
        points=points,
        protocol=engine,
    )
