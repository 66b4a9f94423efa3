"""Figure 6: runtime breakdown for Jacobi across cluster sizes."""

from conftest import save_report, save_sweep_csv

from repro.bench import figure_report, run_figure


def test_fig06_jacobi(benchmark):
    sweep = benchmark.pedantic(run_figure, args=("fig6",), rounds=1, iterations=1)
    save_report("fig06_jacobi", figure_report("fig6", sweep))
    save_sweep_csv("fig06_jacobi", sweep)
    times = sweep.times()
    # Coarse-grain phases: performance is largely independent of cluster
    # size in the multigrain region (paper: flat curve, 16% breakup).
    assert times[2] / times[16] < 1.6, "Jacobi should be nearly flat across C"
    # Breakup penalty: committed 12%, paper 16%.
    assert sweep.breakup_penalty < 0.25
    # No locks in Jacobi.
    assert all(p.lock_acquires == 0 for p in sweep.points)
