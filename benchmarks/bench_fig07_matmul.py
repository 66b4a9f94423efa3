"""Figure 7: runtime breakdown for Matrix Multiply across cluster sizes."""

from conftest import save_report, save_sweep_csv

from repro.bench import figure_report, run_figure


def test_fig07_matmul(benchmark):
    sweep = benchmark.pedantic(run_figure, args=("fig7",), rounds=1, iterations=1)
    save_report("fig07_matmul", figure_report("fig7", sweep))
    save_sweep_csv("fig07_matmul", sweep)
    times = sweep.times()
    # Essentially zero breakup penalty and a flat multigrain region: the
    # read-shared B operand replicates once per SSMP and C rows have a
    # single writer each.
    # Breakup penalty: committed 5%, paper 0%.
    assert sweep.breakup_penalty < 0.1
    assert times[1] / times[16] < 1.5, "Matmul should be flat across C"
