"""Benchmark harness: regenerates every table and figure of the paper."""

from repro.bench.cache import CacheVerifyError, RunCache, resolve_cache
from repro.bench.compare import (
    ProtocolComparison,
    comparison_to_csv,
    render_comparison,
    run_comparison,
)
from repro.bench.figures import FIGURES, bench_params, figure_report, run_figure
from repro.bench.micro import MicroCosts, measure_micro_costs
from repro.bench.parallel import parallel_map, resolve_jobs
from repro.bench.report import (
    render_breakdown_figure,
    render_lock_figure,
    render_metrics,
    render_table,
)
from repro.bench.sweep import default_config, run_sweep
from repro.bench.table4 import render_table4, run_table4

__all__ = [
    "RunCache",
    "CacheVerifyError",
    "resolve_cache",
    "MicroCosts",
    "measure_micro_costs",
    "FIGURES",
    "bench_params",
    "figure_report",
    "run_figure",
    "run_sweep",
    "ProtocolComparison",
    "run_comparison",
    "render_comparison",
    "comparison_to_csv",
    "parallel_map",
    "resolve_jobs",
    "default_config",
    "render_breakdown_figure",
    "render_lock_figure",
    "render_metrics",
    "render_table",
    "run_table4",
    "render_table4",
]
