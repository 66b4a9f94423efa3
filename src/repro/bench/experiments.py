"""The experiment registry: one entry per committed ``results/`` file set.

Each :class:`Experiment` names its sweeps as :class:`SweepSpec`\\ s and
renders them into its files.  ``repro reproduce [NAME...|--all]`` runs
every spec through :func:`~repro.bench.sweep.run_sweep` and one
:class:`~repro.bench.cache.RunCache`, so a point two entries share
(Figure 11's are Figures 8-10's, Table 4's 32-way column is each
figure's C=32 point, the comparison's ``mgs`` rows are Figures 6 and 9)
is simulated once.  Table 3's micro-kernels and the single-writer
ablation run directed programs of their own, never cached.  An entry's
``check`` raises :class:`CheckFailed` on what its files do not hold;
``tests/test_paper_claims.py`` checks the claims they do.  The
explorer's files stay with ``repro analyze``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.apps import ALL_APPS, SYNTHETIC_APPS, jacobi
from repro.apps.jacobi import JacobiParams
from repro.apps.tsp import TSPParams
from repro.apps.water import WaterParams
from repro.bench.cache import RunCache, resolve_cache
from repro.bench.compare import ProtocolComparison, render_comparison
from repro.bench.figures import FIGURES, bench_params, figure_report
from repro.bench.micro import PAPER_TABLE3, measure_micro_costs
from repro.bench.report import render_lock_figure, render_table
from repro.bench.sweep import run_sweep
from repro.metrics import ClusterSweep, sweep_to_csv
from repro.params import CostModel, MachineConfig, NetworkConfig, ProtocolOptions
from repro.runtime import Runtime, RunOptions

__all__ = ["EXPERIMENTS", "PAPER_TABLE4", "RESULTS", "CheckFailed",
           "Experiment", "SweepSpec", "cache_report", "main", "outputs", "sweeper"]

#: where ``reproduce`` writes: ``results/`` under the working directory
#: (run it from the repository root)
RESULTS = Path("results")

#: every app name a spec may use, with the module that runs it
_MODULES = {**ALL_APPS, **{spec.app: spec.module for spec in FIGURES.values()}}


@dataclass(frozen=True)
class SweepSpec:
    """The arguments of one :func:`~repro.bench.sweep.run_sweep` call.

    ``params`` None takes :func:`~repro.bench.figures.bench_params` at
    the run's scale.  ``total_processors`` None marks a figure sweep:
    the paper's 32-processor platform, which the CLI retargets at the
    machine its flags name (``repro fig11 --processors N --protocol
    swdsm``).  ``overrides`` are ``run_sweep``'s, as ``(name, value)``
    pairs: the ``MachineConfig`` fields that name the machine.
    """

    app: str
    params: Any = None
    total_processors: int | None = None
    sizes: tuple[int, ...] | None = None
    overrides: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class Experiment:
    """One ``results/<name>.*`` file set.

    ``render`` maps the sweeps of ``sweeps`` (in order), or what an
    uncached entry's ``collect`` returns, to ``{suffix: file text}``;
    ``check`` raises :class:`CheckFailed` on the same data before
    anything is written.  ``uncached`` names what ``collect`` or
    ``check`` simulates outside the run cache on every run.
    """

    name: str
    render: Callable[[Any], dict[str, str]]
    sweeps: tuple[SweepSpec, ...] = ()
    collect: Callable[[], Any] | None = None
    check: Callable[[Any], None] | None = None
    uncached: str = ""


class CheckFailed(Exception):
    """An entry's data breaks a claim its files cannot show."""


def _require(holds: bool, claim: str) -> None:
    if not holds:
        raise CheckFailed(claim)


def sweeper(
    cache: RunCache | None,
    options: RunOptions,
    jobs: int | None = None,
    cache_verify: bool = False,
) -> Callable[[SweepSpec], ClusterSweep]:
    """Run each distinct spec once, through ``cache`` (None: uncached)."""

    @functools.cache
    def sweep(spec: SweepSpec) -> ClusterSweep:
        params = spec.params
        if params is None:
            params = bench_params(spec.app, options.scale)
        return run_sweep(
            _MODULES[spec.app],
            params=params,
            total_processors=spec.total_processors or 32,
            sizes=list(spec.sizes) if spec.sizes is not None else None,
            name=spec.app,
            overrides=dict(spec.overrides) or None,
            jobs=jobs,
            cache=cache if cache is not None else False,
            cache_verify=cache_verify,
            options=options,
        )

    return sweep


def outputs(
    experiment: Experiment, sweep: Callable[[SweepSpec], ClusterSweep]
) -> dict[str, str]:
    """Run ``experiment`` (its sweeps through ``sweep``), check and render it."""
    if experiment.collect is not None:
        data = experiment.collect()
    else:
        data = [sweep(spec) for spec in experiment.sweeps]
    if experiment.check is not None:
        experiment.check(data)
    return experiment.render(data)


def cache_report(cache: RunCache) -> str:
    s = cache.stats
    return (
        f"run cache [{cache.root}]: {s.hits} hits, {s.misses} misses, "
        f"{s.stores} stored, {s.verified} verified, "
        f"{s.bytes_read}B read / {s.bytes_written}B written"
    )


def _txt(title: str, headers: list[str], rows: list[list[str]]) -> dict[str, str]:
    return {".txt": f"{title}\n\n{render_table(headers, rows)}\n"}


def _time(sweep: ClusterSweep) -> int:
    """The total time of a one-point sweep."""
    (point,) = sweep.points
    return point.total_time


def _render_table3(measured) -> dict[str, str]:
    costs = CostModel()
    rows = [
        ("Cache Miss Local", costs.miss_local, "cache_miss_local"),
        ("Cache Miss Remote", costs.miss_remote, "cache_miss_remote"),
        ("Cache Miss 2-party", costs.miss_2party, "cache_miss_2party"),
        ("Cache Miss 3-party", costs.miss_3party, "cache_miss_3party"),
        ("Remote Software", costs.miss_software_dir, "remote_software"),
        ("Distributed Array Translation", costs.translate_array, "translate_array"),
        ("Pointer Translation", costs.translate_pointer, "translate_pointer"),
        ("TLB Fill", measured.tlb_fill, "tlb_fill"),
        ("Inter-SSMP Read Miss", measured.read_miss, "read_miss"),
        ("Inter-SSMP Write Miss", measured.write_miss, "write_miss"),
        ("Release (1 writer)", measured.release_1writer, "release_1writer"),
        ("Release (2 writers)", measured.release_2writers, "release_2writers"),
    ]
    return _txt(
        "Table 3: Shared Memory Costs on MGS",
        ["operation", "measured (cycles)", "paper (cycles)"],
        [[name, str(value), str(PAPER_TABLE3[key])] for name, value, key in rows],
    )


#: Table 4 of the paper: (problem size, Seq in Mcycles, speedup on 32).
PAPER_TABLE4 = {
    "jacobi": ("1024x1024, 10 iters", 1618.0, 30.0),
    "matmul": ("256x256", 3081.0, 26.9),
    "tsp": ("10-city tour", 54.2, 23.0),
    "water": ("343 molecules, 2 iters", 1993.0, 26.9),
    "barnes-hut": ("2K bodies, 3 iters", 977.0, 13.8),
    "water-kernel": ("512 molecules, 1 iter", 1540.0, 26.7),
}

_TABLE4_APPS = [app for app in ALL_APPS if app not in SYNTHETIC_APPS]

#: Table 4's "size (ours)" of each app's ``bench_params``
_PROBLEM_SIZE = {
    "jacobi": "{n}x{n}, {iterations} iters",
    "matmul": "{n}x{n}",
    "tsp": "{ncities}-city tour",
    "water": "{n_molecules} molecules, {iterations} iters",
    "barnes-hut": "{n_bodies} bodies, {iterations} iters",
    "water-kernel": "{n_molecules} molecules, 1 iter",
}


def _render_table4(sweeps: list[ClusterSweep]) -> dict[str, str]:
    """Seq is the app on one processor (software VM overhead included,
    as in the paper); S32 compares it with the 32-processor
    tightly-coupled machine (C = P)."""
    rows = []
    for app, seq, par in zip(_TABLE4_APPS, sweeps[::2], sweeps[1::2]):
        size, paper_seq, paper_s32 = PAPER_TABLE4[app]
        rows.append([
            app, _PROBLEM_SIZE[app].format_map(vars(bench_params(app))),
            f"{_time(seq) / 1e6:.1f}",
            f"{_time(seq) / _time(par):.1f}", size, f"{paper_seq:.1f}",
            f"{paper_s32:.1f}",
        ])
    return _txt(
        "Table 4: Applications and their problem sizes (scaled)",
        ["app", "size (ours)", "Seq Mcyc", "S32", "size (paper)", "paper Seq",
         "paper S32"],
        rows,
    )


def _figure(key: str, stem: str, check=None) -> Experiment:
    def render(sweeps: list[ClusterSweep]) -> dict[str, str]:
        (sweep,) = sweeps
        return {".txt": figure_report(key, sweep) + "\n", ".csv": sweep_to_csv(sweep)}

    return Experiment(stem, render, (SweepSpec(FIGURES[key].app),), check=check)


def _jacobi_takes_no_locks(sweeps: list[ClusterSweep]) -> None:
    _require(all(p.lock_acquires == 0 for p in sweeps[0].points),
             "Jacobi takes no locks")


def _render_fig11(sweeps: list[ClusterSweep]) -> dict[str, str]:
    title = "Figure 11: Hit rate for MGS lock as a function of cluster size"
    return {".txt": render_lock_figure(sweeps, title) + "\n"}


def _render_fig12(sweeps: list[ClusterSweep]) -> dict[str, str]:
    unopt, opt = sweeps
    parts = [figure_report("fig12-unopt", unopt), figure_report("fig12-opt", opt)]
    return {".txt": "\n\n".join(parts) + "\n"}


# The ablations run on 16 processors unless noted, with the paper's
# 1000-cycle inter-SSMP delay.

#: Section 4.2.4's read-only data off the page-cleaning critical path
_CLEAN_APPS = {
    "jacobi": JacobiParams(n=32, iterations=6),
    "water": WaterParams(n_molecules=33, iterations=2),
}
_CLEAN_SPECS = tuple(
    SweepSpec(app, params, 16, (2,), (("options", ProtocolOptions(fast_read_clean=f)),))
    for f in (False, True)
    for app, params in _CLEAN_APPS.items()
)


def _render_clean(sweeps: list[ClusterSweep]) -> dict[str, str]:
    base, fast = [list(map(_time, sweeps[i:i + 2])) for i in (0, 2)]
    return _txt(
        "Ablation: fast read-page cleaning (16 processors, C=2)",
        ["app", "baseline", "fast clean", "speedup"],
        [[app, f"{b:,}", f"{f:,}", f"{b / f:.3f}x"]
         for app, b, f in zip(_CLEAN_APPS, base, fast)],
    )


_JACOBI_16 = JacobiParams(n=32, iterations=4)
_WATER_16 = WaterParams(n_molecules=33, iterations=1)

#: LAN link bandwidths in bytes/cycle; 0 is the paper's fixed-latency
#: network.  At 20 MHz, 1 byte/cycle is roughly a 160 Mbit/s link.
_BANDWIDTHS = (0.0, 4.0, 1.0, 0.25)
_LAN_SPECS = tuple(
    SweepSpec("water", _WATER_16, 16, (1, 4), (("network", net),))
    for net in (NetworkConfig(external="bus", bus_bandwidth=bw) if bw
                else NetworkConfig() for bw in _BANDWIDTHS)
)


def _render_lan(sweeps: list[ClusterSweep]) -> dict[str, str]:
    rows = []
    for bw, sweep in zip(_BANDWIDTHS, sweeps):
        cells = [f"{bw} B/cycle" if bw else "none (paper)"]
        for c in (1, 4):
            t = sweep.point(c).total_time
            cells += [f"{t:,}", f"{t / sweeps[0].point(c).total_time:.2f}x"]
        rows.append(cells)
    return _txt(
        "Ablation: LAN contention model (Water, 16 processors)",
        ["link", "time C=1", "vs paper", "time C=4", "vs paper"],
        rows,
    )


_DELAYS = (0, 1000, 4000)
_LATENCY_SPECS = tuple(
    SweepSpec(app, params, 16, (4,), (("inter_ssmp_delay", delay),))
    for delay in _DELAYS
    for app, params in (("jacobi", _JACOBI_16), ("water", _WATER_16))
)


def _render_latency(sweeps: list[ClusterSweep]) -> dict[str, str]:
    times = list(map(_time, sweeps))
    base_j, base_w = times[:2]
    return _txt(
        "Ablation: inter-SSMP latency sweep (16 processors, C=4)",
        ["latency", "jacobi", "vs 0", "water", "vs 0"],
        [[f"{delay} cycles", f"{tj:,}", f"{tj / base_j:.2f}x", f"{tw:,}",
          f"{tw / base_w:.2f}x"]
         for delay, tj, tw in zip(_DELAYS, times[::2], times[1::2])],
    )


#: Figure 6's Jacobi curve on 8 processors over each external topology
#: and drop rate; the fixed 0% cell is the paper's network model
_NETWORK_P = 8
_NETWORK_PARAMS = JacobiParams(n=32, iterations=3)
_NETWORK_CELLS = [
    (t, loss) for t in ("fixed", "bus", "fabric") for loss in (0.0, 0.05, 0.10)
]
_NETWORK_SPECS = tuple(
    SweepSpec("jacobi", _NETWORK_PARAMS, _NETWORK_P,
              overrides=(("network", NetworkConfig(external=t, drop_rate=loss)),))
    for t, loss in _NETWORK_CELLS
)


def _render_network(sweeps: list[ClusterSweep]) -> dict[str, str]:
    base = sweeps[_NETWORK_CELLS.index(("fixed", 0.0))].point(1).total_time
    rows = []
    for (topo, loss), sweep in zip(_NETWORK_CELLS, sweeps):
        p1 = sweep.point(1)
        rows.append([
            topo, f"{loss:.0%}", f"{p1.total_time:,}", f"{p1.total_time / base:.2f}x",
            f"{p1.network['retransmits']}", f"{p1.network['drops']}",
            f"{p1.network['queue_cycles']:,}",
        ])
    return _txt(
        f"Ablation: interconnect topology x loss rate "
        f"(Jacobi, {_NETWORK_P} processors, C=1 column)",
        ["topology", "loss", "time C=1", "vs paper model", "retransmits", "drops",
         "queue cycles"],
        rows,
    )


def _check_network(sweeps: list[ClusterSweep]) -> None:
    cells = dict(zip(_NETWORK_CELLS, sweeps))
    # The fixed 0% cell (cached, or simulated just now) is bit-for-bit
    # the curve a fresh uncached run on the default network produces.
    fixed = cells[("fixed", 0.0)]
    baseline = run_sweep(jacobi, params=_NETWORK_PARAMS,
                         total_processors=_NETWORK_P, cache=False)
    _require(fixed.times() == baseline.times(),
             f"fixed 0% times {fixed.times()} != default network {baseline.times()}")
    messages = [[p.messages_inter_ssmp for p in s.points] for s in (fixed, baseline)]
    _require(messages[0] == messages[1],
             f"fixed 0% inter-SSMP messages {messages[0]} != default {messages[1]}")
    # A single SSMP has no external traffic to fault.
    for (topo, loss), sweep in cells.items():
        if loss == 0.10:
            _require(sweep.point(_NETWORK_P).network["drops"] == 0,
                     f"{topo}: drops at C=P")


_PAGE_SIZES = (512, 1024, 4096)
_PAGE_SIZE_SPECS = tuple(
    SweepSpec(app, params, 16, (4,), (("page_size", page),))
    for page in _PAGE_SIZES
    for app, params in (("jacobi", _JACOBI_16), ("tsp", TSPParams(ncities=7)))
)


def _render_page_size(sweeps: list[ClusterSweep]) -> dict[str, str]:
    times = list(map(_time, sweeps))
    return _txt(
        "Ablation: page size sweep (16 processors, C=4)",
        ["page size", "jacobi", "tsp"],
        [[f"{page} B", f"{tj:,}", f"{tt:,}"]
         for page, tj, tt in zip(_PAGE_SIZES, times[::2], times[1::2])],
    )


#: Section 3.1.1's single-writer optimization on a directed program:
#: every processor writes its own page, homed half a machine away, with a
#: barrier after each round
_SW_ROUNDS = 6
_SW_P = 16


def _single_writer_run(single_writer_opt: bool, cluster_size: int) -> tuple:
    """(time, 1W releases, diffs sent, write requests) of one run."""
    config = MachineConfig(
        total_processors=_SW_P,
        cluster_size=cluster_size,
        inter_ssmp_delay=1000,
        options=ProtocolOptions(single_writer_opt=single_writer_opt),
    )
    rt = Runtime(config)
    wpp = config.words_per_page
    arr = rt.array("pages", _SW_P * wpp, home=lambda pg: (pg + _SW_P // 2) % _SW_P)
    arr.init([0.0] * (_SW_P * wpp))

    def worker(env):
        base = env.pid * wpp
        for r in range(_SW_ROUNDS):
            for w in range(0, wpp, 8):
                yield from env.write(arr.addr(base + w), float(r))
            yield from env.compute(2000)
            yield from env.barrier()

    rt.spawn_all(worker)
    result = rt.run()
    stats = result.protocol_stats
    return (result.total_time, *(
        stats.get(k, 0)
        for k in ("one_writer_releases", "diffs_sent", "write_requests")
    ))


def _collect_single_writer() -> dict[int, tuple]:
    return {c: (_single_writer_run(True, c), _single_writer_run(False, c))
            for c in (2, 8)}


def _render_single_writer(results: dict[int, tuple]) -> dict[str, str]:
    rows = [
        [f"C={c}", f"{t_on:,}", f"{t_off:,}", f"{t_off / t_on:.2f}x", str(ow_on),
         f"{d_on}/{d_off}", f"{w_on}/{w_off}"]
        for c, ((t_on, ow_on, d_on, w_on), (t_off, _, d_off, w_off)) in results.items()
    ]
    return _txt(
        "Ablation: single-writer optimization\n"
        f"({_SW_P} processors, {_SW_ROUNDS} write+barrier rounds, "
        "displaced page homes)",
        ["config", "time (opt on)", "time (opt off)", "speedup", "1W releases",
         "diffs on/off", "WREQs on/off"],
        rows,
    )


def _check_single_writer(results: dict[int, tuple]) -> None:
    for c, (_, without_opt) in results.items():
        _require(without_opt[1] == 0, f"C={c}: 1W releases with the optimization off")


_COMPARE_APPS = ["jacobi", "water"]
_COMPARE_ENGINES = ["mgs", "swdsm", "sc_pages"]


def _render_compare(sweeps: list[ClusterSweep]) -> dict[str, str]:
    it = iter(sweeps)
    per_app = {app: {p: next(it) for p in _COMPARE_ENGINES} for app in _COMPARE_APPS}
    return {".txt": render_comparison(
        ProtocolComparison(_COMPARE_APPS, _COMPARE_ENGINES, 32, per_app)
    )}


EXPERIMENTS = {e.name: e for e in [
    Experiment("table3", _render_table3, collect=measure_micro_costs,
               uncached="micro-kernels"),
    Experiment("table4", _render_table4, tuple(
        spec
        for app in _TABLE4_APPS
        for spec in (SweepSpec(app, total_processors=1),
                     SweepSpec(app, total_processors=32, sizes=(32,)))
    )),
    _figure("fig6", "fig06_jacobi", _jacobi_takes_no_locks),
    _figure("fig7", "fig07_matmul"),
    _figure("fig8", "fig08_tsp"),
    _figure("fig9", "fig09_water"),
    _figure("fig10", "fig10_barnes_hut"),
    Experiment("fig11_lock_hit", _render_fig11,
               tuple(SweepSpec(FIGURES[k].app) for k in ("fig8", "fig9", "fig10"))),
    Experiment("fig12_water_kernel", _render_fig12,
               tuple(SweepSpec(FIGURES[k].app) for k in ("fig12-unopt", "fig12-opt"))),
    Experiment("ablation_clean", _render_clean, _CLEAN_SPECS),
    Experiment("ablation_lan", _render_lan, _LAN_SPECS),
    Experiment("ablation_latency", _render_latency, _LATENCY_SPECS),
    Experiment("ablation_network", _render_network, _NETWORK_SPECS,
               check=_check_network, uncached="default-network check sweep"),
    Experiment("ablation_page_size", _render_page_size, _PAGE_SIZE_SPECS),
    Experiment("ablation_single_writer", _render_single_writer,
               collect=_collect_single_writer, check=_check_single_writer,
               uncached="directed program"),
    Experiment("compare_jacobi_water", _render_compare, tuple(
        SweepSpec(app, total_processors=32, overrides=(("protocol", engine),))
        for app in _COMPARE_APPS
        for engine in _COMPARE_ENGINES
    )),
]}


def main(argv: list[str] | None = None) -> int:
    """The ``repro reproduce`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro reproduce",
        description="Regenerate the committed results/ files (under the working "
        "directory) through one run cache",
    )
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"experiments to run ({', '.join(EXPERIMENTS)})")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--cache-dir", metavar="DIR", help="run-cache directory "
                        "(default: REPRO_CACHE_DIR or .repro_cache/)")
    args = parser.parse_args(argv)
    if args.all == bool(args.names) or not set(args.names) <= set(EXPERIMENTS):
        parser.error(f"name experiments from {', '.join(EXPERIMENTS)}, or pass --all")
    flags = {"REPRO_CACHE": "1"}
    if args.cache_dir:
        flags["REPRO_CACHE_DIR"] = args.cache_dir
    options = RunOptions.from_env(flags)
    cache = resolve_cache(True, options)
    sweep = sweeper(cache, options)
    for name in list(EXPERIMENTS) if args.all else args.names:
        experiment = EXPERIMENTS[name]
        try:
            files = outputs(experiment, sweep)
        except CheckFailed as exc:
            print(f"{name}: check failed: {exc}", file=sys.stderr)
            return 1
        RESULTS.mkdir(exist_ok=True)
        for suffix, text in files.items():
            (RESULTS / f"{name}{suffix}").write_text(text)
        uncached = f" (uncached: {experiment.uncached})" if experiment.uncached else ""
        print(f"{name}: wrote {', '.join(name + s for s in files)}{uncached}")
    print(cache_report(cache))
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
