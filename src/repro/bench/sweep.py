"""Cluster-size sweeps: the engine behind Figures 6-12."""

from __future__ import annotations

import importlib
import time
from typing import Any

from repro.bench.cache import (
    RunCache,
    app_run_from_dict,
    app_run_to_dict,
    resolve_cache,
)
from repro.bench.parallel import parallel_map, resolve_jobs
from repro.metrics import ClusterSweep, SweepPoint, cluster_sizes
from repro.params import CostModel, MachineConfig, NetworkConfig
from repro.runtime import RunOptions

__all__ = ["run_sweep", "default_config"]


def default_config(
    cluster_size: int, total_processors: int = 32, **overrides
) -> MachineConfig:
    """The paper's experimental platform: 32 processors, 1 KB pages,
    1000-cycle inter-SSMP message delay (section 5.2.1)."""
    return MachineConfig(
        total_processors=total_processors,
        cluster_size=cluster_size,
        inter_ssmp_delay=overrides.pop("inter_ssmp_delay", 1000),
        **overrides,
    )


def _point_config(
    total_processors: int,
    cluster_size: int,
    inter_ssmp_delay: int,
    network: NetworkConfig | None,
    overrides: dict[str, Any] | None = None,
) -> MachineConfig:
    """The exact MachineConfig a sweep point simulates (also the cache key)."""
    kwargs: dict[str, Any] = {"inter_ssmp_delay": inter_ssmp_delay}
    if network is not None:
        kwargs["network"] = network
    if overrides:
        kwargs.update(overrides)
    return default_config(cluster_size, total_processors, **kwargs)


def _fold_point(run) -> SweepPoint:
    """Fold one AppRun into the SweepPoint the figures consume.

    Shared by the live and cached paths, so a cache hit produces the
    byte-identical point a fresh simulation would.
    """
    return SweepPoint(
        cluster_size=run.result.config.cluster_size,
        total_time=run.total_time,
        breakdown=run.result.breakdown(),
        lock_hit_ratio=run.result.lock_stats.hit_ratio,
        lock_acquires=run.result.lock_stats.acquires,
        protocol_stats=run.result.protocol_stats,
        messages_inter_ssmp=run.result.messages_inter_ssmp,
        network=run.result.network_stats,
        message_flows=run.result.message_flows,
        transactions=run.result.transactions,
    )


def _sweep_point(
    module_name: str,
    params: Any,
    total_processors: int,
    cluster_size: int,
    costs: CostModel | None,
    inter_ssmp_delay: int,
    network: NetworkConfig | None,
    require_valid: bool,
    overrides: dict[str, Any] | None,
    options: RunOptions,
) -> tuple[str, SweepPoint]:
    """Simulate one cluster-size point and fold it into a SweepPoint.

    Module-level and addressed by module *name* so the parallel driver
    can ship it to worker processes; the serial path runs the very same
    function, which is what makes parallel output byte-identical.
    """
    app_module = importlib.import_module(module_name)
    config = _point_config(
        total_processors, cluster_size, inter_ssmp_delay, network, overrides
    )
    run = app_module.run(config, params, costs, options)
    if require_valid:
        run.require_valid()
    return run.name, _fold_point(run)


def _sweep_point_payload(
    module_name: str,
    params: Any,
    total_processors: int,
    cluster_size: int,
    costs: CostModel | None,
    inter_ssmp_delay: int,
    network: NetworkConfig | None,
    require_valid: bool,
    overrides: dict[str, Any] | None,
    options: RunOptions,
) -> tuple[str, SweepPoint, dict, float]:
    """The cached-path worker: ``_sweep_point`` plus the cache payload.

    Returns ``(name, point, serialized AppRun, wall seconds)``; the
    parent process owns all cache writes, so workers never race on the
    store.
    """
    app_module = importlib.import_module(module_name)
    config = _point_config(
        total_processors, cluster_size, inter_ssmp_delay, network, overrides
    )
    t0 = time.perf_counter()
    run = app_module.run(config, params, costs, options)
    wall = time.perf_counter() - t0
    if require_valid:
        run.require_valid()
    return run.name, _fold_point(run), app_run_to_dict(run), wall


def _cached_results(
    cache: RunCache,
    cache_verify: bool,
    point_args: list[tuple],
    jobs: int,
) -> list[tuple[str, SweepPoint]]:
    """The cache-aware sweep executor.

    Hits are served in-process from the store (no fork); misses — and,
    under ``cache_verify``, a deterministic sample of hits — are farmed
    to workers longest-job-first using cached wall-time estimates, then
    collected in input order, so the sweep is byte-identical to the
    uncached serial loop at any job count.
    """
    keyed = []
    for args in point_args:
        (module_name, params, total_processors, c, costs, delay, network,
         _, overrides, _) = args
        config = _point_config(total_processors, c, delay, network, overrides)
        keyed.append(cache.key_for(config, costs, module_name, params))

    entries = [cache.get(key) for key, _ in keyed]
    hit_positions = [i for i, e in enumerate(entries) if e is not None]
    verify_set = (
        {hit_positions[j] for j in cache.verify_sample(len(hit_positions))}
        if cache_verify
        else set()
    )
    work = [i for i, e in enumerate(entries) if e is None or i in verify_set]

    priorities = [
        cache.estimate_seconds(
            point_args[i][0],
            point_args[i][3],
            (point_args[i][8] or {}).get("protocol", "mgs"),
        )
        for i in work
    ]
    executed = (
        parallel_map(
            _sweep_point_payload,
            [point_args[i] for i in work],
            jobs,
            priorities=priorities,
        )
        if work
        else []
    )

    fresh: dict[int, tuple[str, SweepPoint, dict, float]] = dict(zip(work, executed))
    results: list[tuple[str, SweepPoint]] = []
    for i, (key, preimage) in enumerate(keyed):
        entry = entries[i]
        if entry is None:
            name, point, payload, wall = fresh[i]
            cache.put(key, preimage, payload, wall)
            results.append((name, point))
            continue
        if i in verify_set:
            cache.check_identical(key, entry, fresh[i][2])
        run = app_run_from_dict(entry["run"])
        require_valid = point_args[i][7]
        if require_valid:
            run.require_valid()
        results.append((run.name, _fold_point(run)))
    return results


def run_sweep(
    app_module: Any,
    params: Any = None,
    total_processors: int = 32,
    sizes: list[int] | None = None,
    costs: CostModel | None = None,
    inter_ssmp_delay: int = 1000,
    name: str | None = None,
    require_valid: bool = True,
    network: NetworkConfig | None = None,
    jobs: int | None = None,
    cache: RunCache | bool | None = None,
    cache_verify: bool = False,
    overrides: dict[str, Any] | None = None,
    protocol: str | None = None,
    options: RunOptions | None = None,
) -> ClusterSweep:
    """Run ``app_module.run`` at every cluster size and collect the curve.

    Every point validates the application output against its sequential
    golden run, so a sweep doubles as a protocol correctness check.

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
    Cache hits skip the fork entirely; misses are scheduled
    longest-job-first from cached wall-time estimates.  ``cache_verify``
    re-executes a deterministic sample of hits and fails loudly if any
    cached result is not reproduced bit-for-bit.

    ``overrides`` are extra :class:`MachineConfig` keyword arguments
    applied to every point (page size, protocol options, ...); the
    ``repro.serve`` request validation surface feeds them through here.
    They participate in the cache key like every other config field.

    ``protocol`` selects the coherence engine by registry name (sugar
    for ``overrides={"protocol": ...}``; see :mod:`repro.protocols`).
    """
    if options is None:
        options = RunOptions.from_env()
    if protocol is not None:
        overrides = {**(overrides or {}), "protocol": protocol}
    engine = (overrides or {}).get("protocol", "mgs")
    if sizes is None:
        sizes = cluster_sizes(total_processors)
    module_name = getattr(app_module, "__name__", str(app_module))
    point_args = [
        (
            module_name,
            params,
            total_processors,
            c,
            costs,
            inter_ssmp_delay,
            network,
            require_valid,
            overrides,
            options,
        )
        for c in sizes
    ]
    jobs = resolve_jobs(options.jobs if jobs is None else jobs)
    run_cache = resolve_cache(cache, options)
    if run_cache is not None:
        results = _cached_results(run_cache, cache_verify, point_args, jobs)
    else:
        results = parallel_map(_sweep_point, point_args, jobs)
    app_name = name
    points = []
    for run_name, point in results:
        app_name = app_name or run_name
        points.append(point)
    return ClusterSweep(
        app=app_name or module_name,
        total_processors=total_processors,
        points=points,
        protocol=engine,
    )
