"""Serialization of sweep results for external analysis and plotting.

Every JSON payload carries ``schema_version`` (:data:`SCHEMA_VERSION`)
so external consumers — plotting scripts, the ``repro.serve`` HTTP API —
can detect incompatible layout changes instead of mis-parsing them.
Bump it whenever a key is renamed, removed, or changes meaning; adding
new keys is backward compatible and needs no bump.
"""

from __future__ import annotations

import csv
import io
import json

from repro.metrics.framework import ClusterSweep

__all__ = [
    "SCHEMA_VERSION",
    "sweep_to_csv",
    "sweep_to_dict",
]

#: version of the exported JSON layout (see module docstring)
SCHEMA_VERSION = 1


def _derived(sweep: ClusterSweep, name: str):
    """A derived curve metric, or None when the sweep lacks the points.

    The breakup/multigrain metrics need the C=1, C=P/2, and C=P points;
    a partial sweep (``repro.serve`` accepts arbitrary ``sizes``) simply
    exports them as null instead of failing the whole payload.
    """
    try:
        return getattr(sweep, name)
    except (KeyError, ValueError):
        return None


def sweep_to_dict(sweep: ClusterSweep) -> dict:
    """A JSON-ready record of a full cluster-size sweep."""
    return {
        "schema_version": SCHEMA_VERSION,
        "app": sweep.app,
        "protocol": sweep.protocol,
        "total_processors": sweep.total_processors,
        "breakup_penalty": _derived(sweep, "breakup_penalty"),
        "multigrain_potential": _derived(sweep, "multigrain_potential"),
        "multigrain_curvature": _derived(sweep, "curvature"),
        "points": [
            {
                "cluster_size": p.cluster_size,
                "total_time": p.total_time,
                "breakdown": p.breakdown,
                "lock_hit_ratio": p.lock_hit_ratio,
                "lock_acquires": p.lock_acquires,
                "messages_inter_ssmp": p.messages_inter_ssmp,
                "network": p.network,
                "message_flows": p.message_flows,
                "transactions": p.transactions,
            }
            for p in sweep.points
        ],
    }


def sweep_to_csv(sweep: ClusterSweep) -> str:
    """One row per cluster size: the series behind Figures 6-10/12."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["app", "cluster_size", "total_time", "user", "lock", "barrier",
         "protocol_time", "lock_hit_ratio", "protocol"]
    )
    for p in sweep.points:
        writer.writerow(
            [
                sweep.app,
                p.cluster_size,
                p.total_time,
                round(p.breakdown.get("user", 0.0)),
                round(p.breakdown.get("lock", 0.0)),
                round(p.breakdown.get("barrier", 0.0)),
                # The runtime's bucket for software-shared-memory time is
                # historically named "mgs" whichever engine produced it.
                round(p.breakdown.get("mgs", 0.0)),
                f"{p.lock_hit_ratio:.4f}",
                sweep.protocol,
            ]
        )
    return buf.getvalue()


def sweep_to_json(sweep: ClusterSweep) -> str:
    return json.dumps(sweep_to_dict(sweep), indent=2)
