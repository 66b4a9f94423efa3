"""The REPRO_SCALE knob grows workloads toward the paper's sizes.

``bench_params`` without an explicit ``scale`` takes
``RunOptions.from_env().scale``; ``tests/test_options.py`` pins the
parse itself.
"""

import warnings

import pytest

from repro.apps import tsp
from repro.bench import bench_params
from repro.params import MachineConfig


def test_default_scale_is_one(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert bench_params("jacobi").n == 64


def test_invalid_scale_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "banana")
    with pytest.warns(RuntimeWarning):
        assert bench_params("jacobi").n == 64
    monkeypatch.setenv("REPRO_SCALE", "-3")
    assert bench_params("jacobi").n == 64


def test_malformed_scale_warns_instead_of_silently_ignoring(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "banana")
    with pytest.warns(RuntimeWarning, match="REPRO_SCALE='banana'"):
        assert bench_params("jacobi").n == 64


def test_valid_scale_does_not_warn(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bench_params("jacobi").n == 128
    # -3 parses fine (clamped), so it must not warn either.
    monkeypatch.setenv("REPRO_SCALE", "-3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bench_params("jacobi").n == 64


def test_scale_grows_every_workload(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2")
    assert bench_params("jacobi").n == 128
    assert bench_params("matmul").n == 64
    assert bench_params("water").n_molecules == 134
    assert bench_params("barnes-hut").n_bodies == 192
    assert bench_params("water-kernel").n_molecules == 512  # the paper's size
    assert bench_params("tsp").ncities == 10  # the paper's size


def test_explicit_scale_argument_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "4")
    assert bench_params("jacobi", scale=1).n == 64


def test_scale1_tsp_pool_keeps_its_layout():
    # The pool size places every later array, so it fixes the cycle
    # counts behind the committed scale-1 results.
    assert bench_params("tsp", scale=1).pool_size == 20000


def test_scale2_tsp_point_runs():
    # The paper's 10-city tree outgrows the 9-city pool: this point used
    # to raise "TSP pool exhausted".
    config = MachineConfig(total_processors=32, cluster_size=32)
    tsp.run(config, bench_params("tsp", scale=2)).require_valid()
