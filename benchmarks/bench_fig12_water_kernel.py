"""Figure 12: Water-kernel with and without the loop transformation.

The paper's headline result for best-effort locality enhancement: the
tiled kernel (two tiles per SSMP, tournament phase schedule) drops the
breakup penalty from 334% to 26% while keeping a large multigrain
potential (107%), because within each phase all sharing is contained in
an SSMP and only page-grain communication remains at phase boundaries.
"""

from conftest import save_report

from repro.bench import figure_report, run_figure


def _collect():
    return run_figure("fig12-unopt"), run_figure("fig12-opt")


def test_fig12_water_kernel(benchmark):
    unopt, opt = benchmark.pedantic(_collect, rounds=1, iterations=1)
    report = "\n\n".join(
        [figure_report("fig12-unopt", unopt), figure_report("fig12-opt", opt)]
    )
    save_report("fig12_water_kernel", report)
    # The loop transformation cuts the breakup penalty more than tenfold
    # (committed: 721% -> 32%; paper: 334% -> 26%)...
    assert opt.breakup_penalty < unopt.breakup_penalty / 10, (
        f"opt {opt.breakup_penalty:.2f} vs unopt {unopt.breakup_penalty:.2f}"
    )
    # ...while a large multigrain potential remains.
    assert opt.multigrain_potential > 0.4
