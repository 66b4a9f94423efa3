"""Tests for the command-line interface (fast paths only)."""

from pathlib import Path

import pytest

from repro.cli import main


RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_table3_runs_and_prints(capsys):
    """``repro table3`` prints exactly the committed file."""
    assert main(["table3"]) == 0
    assert capsys.readouterr().out == (RESULTS / "table3.txt").read_text()


def test_reproduce_writes_the_committed_bytes(tmp_path, monkeypatch, capsys):
    from repro.bench import experiments

    monkeypatch.setattr(experiments, "RESULTS", tmp_path / "results")
    args = ["reproduce", "table3", "--cache-dir", str(tmp_path / "rc")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "table3: wrote table3.txt (uncached: micro-kernels)" in out
    assert " 0 hits, 0 misses," in out
    written = (tmp_path / "results" / "table3.txt").read_bytes()
    assert written == (RESULTS / "table3.txt").read_bytes()


def test_reproduce_needs_names_or_all():
    for args in (["reproduce"], ["reproduce", "--all", "table3"],
                 ["reproduce", "nonesuch"]):
        with pytest.raises(SystemExit):
            main(args)


def test_reproduce_reports_a_failed_check_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    from repro.bench import experiments

    def check(data):
        raise experiments.CheckFailed("planted claim")

    planted = experiments.Experiment("planted", dict, collect=dict, check=check)
    monkeypatch.setitem(experiments.EXPERIMENTS, "planted", planted)
    monkeypatch.setattr(experiments, "RESULTS", tmp_path / "results")
    assert main(["reproduce", "planted", "--cache-dir", str(tmp_path / "rc")]) == 1
    assert "planted: check failed: planted claim" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_unknown_experiment_fails(capsys):
    assert main(["nonesuch"]) == 2
    # results/ names other than table3/table4 and fig11 are not CLI experiments
    assert main(["fig06_jacobi"]) == 2


def test_sweep_requires_known_app():
    with pytest.raises(SystemExit):
        main(["sweep", "not-an-app"])


def test_sweep_runs_small_machine(capsys):
    assert main(["sweep", "matmul", "--processors", "4"]) == 0
    out = capsys.readouterr().out
    assert "breakup penalty" in out
    assert "C= 4" in out


def test_analyze_hands_off_to_explorer(capsys):
    assert main(["analyze", "explore", "--engine", "swdsm"]) == 0
    out = capsys.readouterr().out
    assert "swdsm: clean" in out


def test_analyze_benchmark_prints_the_pinned_row(capsys):
    from tests.test_analysis_mutations import catch_rows

    assert main(["analyze", "benchmark", "--mutation", "drop_twin"]) == 0
    assert capsys.readouterr().out == catch_rows()["drop_twin"] + "\n"


def test_flags_never_write_the_environment(capsys):
    import os

    before = dict(os.environ)
    assert main(["sweep", "matmul", "--processors", "4", "--no-replay"]) == 0
    assert "breakup penalty" in capsys.readouterr().out
    assert dict(os.environ) == before


def test_no_replay_flag_beats_the_environment_in_pool_workers(
    monkeypatch, capsys, worker_replay_settings
):
    import os

    from repro.bench import parallel as par

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    par.shutdown_pool()
    monkeypatch.setenv("REPRO_NO_REPLAY", "0")
    sweep = ["sweep", "scanphase", "--processors", "4", "--jobs", "2", "--no-cache"]
    try:
        assert main([*sweep, "--no-replay"]) == 0  # forks the pool
        off = capsys.readouterr().out
        seen = worker_replay_settings()
        assert seen and all(s == {"False"} for s in seen.values())
        assert main(sweep) == 0
        assert capsys.readouterr().out == off
        seen = worker_replay_settings()  # the control: the environment stands
        assert seen and all(s == {"True"} for s in seen.values())
    finally:
        par.shutdown_pool()


def test_fig11_honours_processors(capsys):
    assert main(["fig11", "--processors", "4"]) == 0
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines() if line.strip().startswith("app"))
    assert header.split() == ["app", "C=1", "C=2", "C=4"]


def test_fig11_forwards_network_and_reuses_its_figures(monkeypatch, capsys):
    from repro.metrics import ClusterSweep, SweepPoint, cluster_sizes

    calls = []

    def fake_run_sweep(module, params, total_processors, name, overrides, **kwargs):
        calls.append((name, total_processors, overrides["network"].external))
        points = [
            SweepPoint(cluster_size=c, total_time=1, breakdown={}, lock_hit_ratio=1.0)
            for c in cluster_sizes(total_processors)
        ]
        return ClusterSweep(app=name, total_processors=total_processors, points=points)

    monkeypatch.setattr("repro.bench.experiments.run_sweep", fake_run_sweep)
    args = ["fig11", "fig11", "--processors", "4", "--network", "bus"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out
    # each figure runs once, on the requested machine and network
    assert calls == [(app, 4, "bus") for app in ("tsp", "water", "barnes-hut")]
    # one column per cluster size of the requested machine
    header = next(line for line in out.splitlines() if line.strip().startswith("app"))
    assert header.split() == ["app", "C=1", "C=2", "C=4"]
