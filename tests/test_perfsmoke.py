"""``python -m repro.bench.perfsmoke`` never writes over its baseline.

The report goes to ``--out`` (default ``BENCH_perfsmoke.new.json``), and
an ``--out`` that names the ``--check`` file is refused before any
workload runs.  No test here runs a workload.
"""

import pytest

from repro.bench import perfsmoke


class _Ran(Exception):
    pass


@pytest.fixture
def no_workloads(monkeypatch, tmp_path):
    def ran(**kwargs):
        raise _Ran

    monkeypatch.setattr(perfsmoke, "run_perfsmoke", ran)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_perfsmoke.json").write_text("{}\n")
    return tmp_path


@pytest.mark.parametrize(
    "out",
    ["BENCH_perfsmoke.json", "./BENCH_perfsmoke.json", "sub/../BENCH_perfsmoke.json"],
)
def test_out_naming_the_baseline_is_refused(no_workloads, out, capsys):
    (no_workloads / "sub").mkdir()
    argv = ["--quick", "--out", out, "--check", "BENCH_perfsmoke.json"]
    assert perfsmoke.main(argv) == 2
    assert "--check baseline" in capsys.readouterr().err
    assert (no_workloads / "BENCH_perfsmoke.json").read_text() == "{}\n"


def test_default_out_is_not_the_baseline(no_workloads):
    # the run starts (and the stub stops it): nothing was refused
    with pytest.raises(_Ran):
        perfsmoke.main(["--quick", "--check", "BENCH_perfsmoke.json"])
