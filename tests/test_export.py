"""Tests for sweep/result serialization."""

import csv
import io
import json

from repro.apps import matmul
from repro.bench import run_sweep
from repro.metrics.export import (
    SCHEMA_VERSION,
    sweep_to_csv,
    sweep_to_dict,
    sweep_to_json,
)


def small_sweep():
    return run_sweep(
        matmul,
        params=matmul.MatmulParams(n=8, compute_per_mac=10),
        total_processors=4,
    )


def test_sweep_to_dict_round_trips_through_json():
    sweep = small_sweep()
    data = json.loads(sweep_to_json(sweep))
    assert data["app"] == "matmul"
    assert len(data["points"]) == 3
    assert data["points"][0]["cluster_size"] == 1
    assert all(p["total_time"] > 0 for p in data["points"])
    assert "breakup_penalty" in data
    assert data["schema_version"] == SCHEMA_VERSION


def test_partial_sweep_exports_null_derived_metrics():
    # A partial sweep (repro.serve accepts arbitrary sizes) lacks the
    # C=1/C=P/2/C=P points the curve metrics need; they export as null
    # rather than failing the payload.
    sweep = run_sweep(
        matmul,
        params=matmul.MatmulParams(n=8, compute_per_mac=10),
        total_processors=4,
        sizes=[2],
    )
    data = sweep_to_dict(sweep)
    assert data["breakup_penalty"] is None
    assert data["multigrain_potential"] is None
    assert len(data["points"]) == 1


def test_sweep_to_csv_is_parseable():
    sweep = small_sweep()
    rows = list(csv.reader(io.StringIO(sweep_to_csv(sweep))))
    assert rows[0][:3] == ["app", "cluster_size", "total_time"]
    assert len(rows) == 4  # header + 3 cluster sizes
    assert rows[1][0] == "matmul"
    # breakdown columns roughly account for the total time
    total = int(rows[1][2])
    parts = sum(int(x) for x in rows[1][3:7])
    assert abs(parts - total) / total < 0.05
