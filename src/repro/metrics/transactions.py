"""Transaction-latency summaries (fault/release percentiles).

The :class:`~repro.core.bus.MessageBus` logs one latency sample per
completed protocol transaction (a mapping fault or a release point).
This module turns those samples into the p50/p95/max summaries surfaced
by ``RunResult``, ``metrics.export`` and the CLI.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["percentile", "latency_summary"]


def percentile(samples: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of ``samples`` (q in [0, 100]).

    Deterministic and interpolation-free, so exported summaries are
    stable integers across platforms.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = -(-q * n // 100)  # ceil(q * n / 100)
    return ordered[min(n, max(1, int(rank))) - 1]


def latency_summary(samples: Sequence[int]) -> dict[str, float]:
    """JSON-ready ``{count, mean, p50, p95, max}`` of latency samples."""
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0, "p95": 0, "max": 0}
    return {
        "count": len(samples),
        "mean": round(sum(samples) / len(samples), 1),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "max": max(samples),
    }
