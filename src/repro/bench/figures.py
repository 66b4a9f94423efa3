"""Per-experiment definitions: workloads, paper numbers, and runners.

One entry per runtime-breakdown figure of the paper's evaluation
(section 5).  The experiment registry (:mod:`repro.bench.experiments`)
renders them into ``results/`` with the paper-vs-measured comparison;
EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.apps import ALL_APPS, default_params
from repro.apps import barnes_hut, jacobi, matmul, tsp, water, water_kernel
from repro.bench.cache import RunCache
from repro.bench.report import render_breakdown_figure, render_metrics
from repro.bench.sweep import run_sweep
from repro.metrics import ClusterSweep
from repro.runtime import RunOptions

__all__ = [
    "FigureSpec",
    "FIGURES",
    "bench_params",
    "run_figure",
    "figure_report",
]


@dataclass(frozen=True)
class FigureSpec:
    """A runtime-breakdown figure from the paper."""

    figure: str
    app: str
    module: Any
    paper_breakup: float | None
    paper_potential: float | None
    paper_curvature: str | None


FIGURES = {
    "fig6": FigureSpec("Figure 6", "jacobi", jacobi, 0.16, 0.0, "linear"),
    "fig7": FigureSpec("Figure 7", "matmul", matmul, 0.0, 0.0, "linear"),
    "fig8": FigureSpec("Figure 8", "tsp", tsp, 22.7, 0.49, "concave"),
    "fig9": FigureSpec("Figure 9", "water", water, 3.22, 0.67, None),
    "fig10": FigureSpec("Figure 10", "barnes-hut", barnes_hut, 1.61, 0.85, "convex"),
    "fig12-unopt": FigureSpec(
        "Figure 12 (untransformed)", "water-kernel", water_kernel, 3.34, None, None
    ),
    "fig12-opt": FigureSpec(
        "Figure 12 (loop-transformed)", "water-kernel-opt", water_kernel, 0.26, 1.07,
        "convex",
    ),
}


#: the size field each app's ``scale`` multiplies
_SCALED = {"jacobi": "n", "matmul": "n", "tsp": "ncities", "water": "n_molecules",
           "barnes-hut": "n_bodies", "water-kernel": "n_molecules"}


def bench_params(app: str, scale: int | None = None) -> Any:
    """Default problem sizes for the benchmark harness: the app's own
    defaults (:func:`~repro.apps.default_params`), grown by ``scale``.

    ``scale`` (None: ``RunOptions.from_env().scale``, i.e.
    ``REPRO_SCALE``) grows the sizes toward the paper's (which are 8-16x
    larger; see DESIGN.md section 6 for the mapping).
    """
    s = RunOptions.from_env().scale if scale is None else scale
    if app == "water-kernel-opt":
        return replace(bench_params("water-kernel", s), optimized=True)
    if app not in _SCALED:
        raise KeyError(f"unknown app {app!r}")
    base = default_params(ALL_APPS[app])
    if app == "tsp":
        # The search tree, and so the path-element pool it allocates,
        # grows about tenfold per city past the default's.
        ncities = min(11, base.ncities - 1 + s)
        grow = 10 ** max(0, ncities - base.ncities)
        return replace(base, ncities=ncities, pool_size=base.pool_size * grow)
    return replace(base, **{_SCALED[app]: getattr(base, _SCALED[app]) * s})


def run_figure(
    key: str,
    total_processors: int = 32,
    jobs: int | None = None,
    cache: "RunCache | bool | None" = None,
    options: RunOptions | None = None,
) -> ClusterSweep:
    """Run the full cluster-size sweep behind one figure on the paper's
    platform.

    ``jobs`` farms cluster-size points to worker processes (see
    :func:`repro.bench.sweep.run_sweep`); the sweep is byte-identical
    at any job count.  ``cache`` routes through the content-addressed
    run cache (:mod:`repro.bench.cache`): warm reruns serve every point
    from disk without simulating.  ``options`` None resolves the
    environment here; its ``scale`` sizes the workload.  Another
    machine is a ``run_sweep(overrides=...)`` or a registry
    ``SweepSpec`` (:mod:`repro.bench.experiments`).
    """
    if options is None:
        options = RunOptions.from_env()
    spec = FIGURES[key]
    params = bench_params(spec.app, options.scale)
    return run_sweep(
        spec.module,
        params=params,
        total_processors=total_processors,
        name=spec.app,
        jobs=jobs,
        cache=cache,
        options=options,
    )


def figure_report(key: str, sweep: ClusterSweep) -> str:
    """Figure rendering plus the paper comparison."""
    spec = FIGURES[key]
    parts = [
        render_breakdown_figure(
            sweep, f"{spec.figure}: runtime breakdown for {spec.app}"
        ),
        "",
        render_metrics(
            sweep,
            paper_breakup=spec.paper_breakup,
            paper_potential=spec.paper_potential,
            paper_curvature=spec.paper_curvature,
        ),
    ]
    return "\n".join(parts)
