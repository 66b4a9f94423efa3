"""Tests for the command-line interface (fast paths only)."""

import pytest

from repro.cli import main


def test_table3_runs_and_prints(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "6982" in out  # inter-SSMP read miss matches the paper


def test_unknown_experiment_fails(capsys):
    assert main(["nonesuch"]) == 2


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

    def fake_run_figure(key, total_processors, network, **kwargs):
        calls.append((key, total_processors, network.external))
        points = [
            SweepPoint(cluster_size=c, total_time=1, breakdown={}, lock_hit_ratio=1.0)
            for c in cluster_sizes(total_processors)
        ]
        return ClusterSweep(app=key, total_processors=total_processors, points=points)

    monkeypatch.setattr("repro.cli.run_figure", fake_run_figure)
    args = ["fig11", "fig11", "--processors", "4", "--network", "bus"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Figure 11" in out
    # each figure runs once, on the requested machine and network
    assert calls == [(key, 4, "bus") for key in ("fig8", "fig9", "fig10")]
    # one column per cluster size of the requested machine
    header = next(line for line in out.splitlines() if line.strip().startswith("app"))
    assert header.split() == ["app", "C=1", "C=2", "C=4"]
