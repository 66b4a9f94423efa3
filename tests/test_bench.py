"""Tests for the benchmark harness: sweeps, rendering, Table 4 helpers."""

import pytest

from repro.apps import matmul
from repro.bench import (
    FIGURES,
    bench_params,
    render_breakdown_figure,
    render_lock_figure,
    render_metrics,
    render_table,
    run_sweep,
)
from repro.bench.experiments import PAPER_TABLE4
from repro.metrics import ClusterSweep, SweepPoint
from repro.params import MachineConfig


def tiny_sweep():
    return run_sweep(
        matmul,
        params=matmul.MatmulParams(n=8, compute_per_mac=10),
        total_processors=4,
    )


def test_run_sweep_covers_all_cluster_sizes():
    sweep = tiny_sweep()
    assert [p.cluster_size for p in sweep.points] == [1, 2, 4]
    assert all(p.total_time > 0 for p in sweep.points)
    assert sweep.app == "matmul"


def test_run_sweep_validates_output():
    # run_sweep always validates: a sweep that completes proves the app
    # matched its golden run at every cluster size.
    sweep = tiny_sweep()
    assert sweep.points


def test_render_table_alignment():
    out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)


def test_render_breakdown_figure_mentions_each_cluster_size():
    sweep = tiny_sweep()
    text = render_breakdown_figure(sweep, "title")
    for c in (1, 2, 4):
        assert f"C={c:>2}" in text
    assert "legend" in text


def test_render_metrics_includes_paper_columns():
    sweep = tiny_sweep()
    text = render_metrics(sweep, paper_breakup=0.16, paper_potential=1.07,
                          paper_curvature="convex")
    assert "16%" in text
    assert "107%" in text
    assert "convex" in text


def test_render_lock_figure():
    points = [
        SweepPoint(cluster_size=c, total_time=1, breakdown={}, lock_hit_ratio=c / 4)
        for c in (1, 2, 4)
    ]
    sweep = ClusterSweep(app="x", total_processors=4, points=points)
    text = render_lock_figure([sweep], "fig")
    assert "0.25" in text and "1.00" in text


def test_default_config_matches_paper_platform():
    # A sweep without overrides simulates MachineConfig's defaults.
    config = MachineConfig(cluster_size=4)
    assert config.total_processors == 32
    assert config.cluster_size == 4
    assert config.inter_ssmp_delay == 1000
    assert config.page_size == 1024
    assert config.protocol == "mgs"


def test_bench_params_cover_every_figure():
    for spec in FIGURES.values():
        params = bench_params(spec.app)
        assert params is not None
    with pytest.raises(KeyError):
        bench_params("nonesuch")


def test_bench_params_at_scale_one_are_the_app_defaults():
    # A sweep that names no params runs the app's defaults, so it shares
    # run-cache entries with the figures only while these are equal.
    from repro.apps import ALL_APPS, default_params

    for app in PAPER_TABLE4:
        assert bench_params(app, 1) == default_params(ALL_APPS[app]), app


def test_paper_table4_has_all_apps():
    from repro.apps import ALL_APPS, SYNTHETIC_APPS

    assert set(PAPER_TABLE4) == set(ALL_APPS) - SYNTHETIC_APPS
