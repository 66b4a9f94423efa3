"""Benchmark harness: regenerates every table and figure of the paper.

The exports load on first use (PEP 562), so importing the package
imports none of its modules: ``python -m repro.bench.cache`` then runs
the cache module once, as ``__main__``, instead of after this package
has already imported it.
"""

import importlib

#: public name -> the module of this package that defines it
_EXPORTS = {
    "RunCache": "cache",
    "CacheVerifyError": "cache",
    "resolve_cache": "cache",
    "MicroCosts": "micro",
    "measure_micro_costs": "micro",
    "FIGURES": "figures",
    "bench_params": "figures",
    "figure_report": "figures",
    "run_figure": "figures",
    "run_sweep": "sweep",
    "ProtocolComparison": "compare",
    "run_comparison": "compare",
    "render_comparison": "compare",
    "comparison_to_csv": "compare",
    "parallel_map": "parallel",
    "resolve_jobs": "parallel",
    "render_breakdown_figure": "report",
    "render_lock_figure": "report",
    "render_metrics": "report",
    "render_table": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
