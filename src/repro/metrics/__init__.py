"""The paper's DSSMP performance framework (section 2.4)."""

from repro.metrics.export import (
    sweep_to_csv,
    sweep_to_dict,
    sweep_to_json,
)
from repro.metrics.framework import (
    ClusterSweep,
    SweepPoint,
    breakup_penalty,
    cluster_sizes,
    curvature,
    multigrain_potential,
)
from repro.metrics.locality import (
    SegmentLocality,
    locality_report,
    render_locality_report,
)

__all__ = [
    "ClusterSweep",
    "SweepPoint",
    "breakup_penalty",
    "cluster_sizes",
    "curvature",
    "multigrain_potential",
    "SegmentLocality",
    "locality_report",
    "render_locality_report",
    "sweep_to_csv",
    "sweep_to_dict",
    "sweep_to_json",
]
