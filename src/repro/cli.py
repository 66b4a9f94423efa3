"""Command-line interface: run any of the paper's experiments.

Usage::

    python -m repro.cli table3
    python -m repro.cli table4
    python -m repro.cli fig6 fig9            # any of fig6..fig12-opt
    python -m repro.cli fig11
    python -m repro.cli all                  # everything (slow)
    python -m repro.cli reproduce --all      # write every results/ file
    python -m repro.cli sweep water --processors 16
    python -m repro.cli sweep water --protocol swdsm
    python -m repro.cli compare --apps jacobi,water --protocols mgs,swdsm
    python -m repro.cli serve --port 8642    # the HTTP daemon (repro.serve)
    python -m repro.cli analyze explore --engine all   # bounded model checker

``table3``, ``table4`` and ``fig11`` print exactly what ``repro
reproduce`` writes under ``results/`` (see :mod:`repro.bench.experiments`).

``--protocol`` and the network flags build one ``overrides`` dict, the
machine every point of ``sweep <app>`` and of each figure sweep
simulates on ``--processors`` processors (see
:func:`repro.bench.sweep.run_sweep`); Table 4's sweeps run as declared.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys

from repro.apps import ALL_APPS
from repro.bench import (
    FIGURES,
    figure_report,
    resolve_cache,
    resolve_jobs,
    run_sweep,
)
from repro.bench.experiments import (
    EXPERIMENTS,
    SweepSpec,
    cache_report,
    outputs,
    sweeper,
)
from repro.params import EXTERNAL_MODELS, NetworkConfig
from repro.runtime import RunOptions

__all__ = [
    "main",
    "network_from_args",
    "add_replay_args",
    "options_from_args",
]


def add_network_args(parser: argparse.ArgumentParser) -> None:
    """The ``repro.net`` flag group shared with the examples."""
    group = parser.add_argument_group("network model (repro.net)")
    group.add_argument(
        "--network",
        choices=EXTERNAL_MODELS,
        default="fixed",
        help="external interconnect: fixed (paper model), bus, fabric",
    )
    group.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="drop rate on external links; >0 enables the reliable transport",
    )
    group.add_argument(
        "--dup-rate", type=float, default=0.0, metavar="RATE",
        help="duplication rate on external links",
    )
    group.add_argument(
        "--net-seed", type=int, default=None, metavar="SEED",
        help="fault-injection PRNG seed",
    )


def add_cache_args(parser: argparse.ArgumentParser) -> None:
    """The run-cache flag group (see :mod:`repro.bench.cache`)."""
    group = parser.add_argument_group("run cache")
    group.add_argument(
        "--cache",
        action="store_true",
        help="serve repeated sweep points from the content-addressed run "
        "cache (also enabled by REPRO_CACHE=1 or REPRO_CACHE_DIR)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the run cache even if REPRO_CACHE/REPRO_CACHE_DIR is set",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: REPRO_CACHE_DIR or .repro_cache/); "
        "implies --cache",
    )
    group.add_argument(
        "--cache-verify",
        action="store_true",
        help="re-execute a sample of cache hits and fail loudly unless each "
        "reproduces the cached result bit-for-bit; implies --cache",
    )


def add_replay_args(parser: argparse.ArgumentParser) -> None:
    """The phase-replay flag group (see :mod:`repro.runtime.replay`).

    Mirrors ``REPRO_NO_REPLAY`` the way ``--cache`` mirrors
    ``REPRO_CACHE``.  Precedence: an explicit flag always beats the
    inherited environment (``--replay`` overrides an inherited
    ``REPRO_NO_REPLAY``; ``--no-replay`` sets it); with no flag the
    environment stands.
    """
    group = parser.add_argument_group("phase replay")
    group.add_argument(
        "--replay",
        action="store_true",
        help="force phase replay on, overriding an inherited "
        "REPRO_NO_REPLAY (replay is on by default)",
    )
    group.add_argument(
        "--no-replay",
        action="store_true",
        help="execute every phase (overrides REPRO_NO_REPLAY for this "
        "invocation, including pool workers); bit-identical, just slower",
    )


def options_from_args(args: argparse.Namespace) -> RunOptions:
    """The environment's :class:`RunOptions` with the flags on top.

    Each flag stands in for the variable it mirrors (``--no-replay`` for
    ``REPRO_NO_REPLAY=1``, ``--cache-dir D`` for ``REPRO_CACHE=1`` and
    ``REPRO_CACHE_DIR=D``, ...), so a flag beats the environment through
    the precedence rules of :meth:`RunOptions.from_env` — and the
    process environment is never written.  Parsers without the run-cache
    group (``repro compare``) leave the cache to the environment.
    """
    flags = {}
    if args.jobs is not None:
        flags["REPRO_JOBS"] = str(args.jobs)
    if args.no_replay:
        if args.replay:
            raise ValueError("--no-replay conflicts with --replay")
        flags["REPRO_NO_REPLAY"] = "1"
    elif args.replay:
        flags["REPRO_NO_REPLAY"] = "0"
    given = vars(args)
    cache_on = given.get("cache") or given.get("cache_dir") or given.get("cache_verify")
    if given.get("no_cache"):
        if cache_on:
            raise ValueError("--no-cache conflicts with the other cache flags")
        flags["REPRO_CACHE"] = "0"
    elif cache_on:
        flags["REPRO_CACHE"] = "1"
        if given["cache_dir"]:
            flags["REPRO_CACHE_DIR"] = given["cache_dir"]
    return RunOptions.from_env(flags)


def parse_trace_pages(value: str) -> set[int] | None:
    """``--trace-pages`` argument: ``all`` or comma-separated vpns.

    Returns None for ``all`` (trace every page), else the vpn set.
    Accepts decimal or ``0x``-prefixed page numbers.
    """
    if value.strip().lower() == "all":
        return None
    try:
        pages = {int(part, 0) for part in value.split(",") if part.strip()}
    except ValueError as exc:
        raise ValueError(f"bad --trace-pages value {value!r}: {exc}") from None
    if not pages:
        raise ValueError("--trace-pages needs 'all' or at least one vpn")
    return pages


def network_from_args(args: argparse.Namespace) -> NetworkConfig | None:
    """A NetworkConfig from the flag group, or None for the default model."""
    if (
        args.network == "fixed"
        and args.loss_rate == 0.0
        and args.dup_rate == 0.0
        and args.net_seed is None
    ):
        return None
    kwargs = dict(
        external=args.network, drop_rate=args.loss_rate, dup_rate=args.dup_rate
    )
    if args.net_seed is not None:
        kwargs["fault_seed"] = args.net_seed
    return NetworkConfig(**kwargs)


def _print_network_stats(sweep) -> None:
    """One line per cluster size when the net layers have anything to say."""
    rows = [
        (p.cluster_size, p.network)
        for p in sweep.points
        if p.network.get("retransmits") or p.network.get("drops")
        or p.network.get("queue_cycles")
    ]
    if not rows:
        return
    print("\nnetwork (repro.net):")
    for c, net in rows:
        print(
            f"  C={c:<3d} drops={net['drops']:<6d} "
            f"retransmits={net['retransmits']:<6d} "
            f"dups_suppressed={net['dups_suppressed']:<6d} "
            f"queue_cycles={net['queue_cycles']}"
        )


def _print_transaction_stats(sweep) -> None:
    """Fault/release latency percentiles, one line per cluster size."""
    rows = [
        (p.cluster_size, p.transactions)
        for p in sweep.points
        if p.transactions
    ]
    if not rows:
        return
    print("\ntransaction latency (cycles):")
    for c, txns in rows:
        for kind in sorted(txns):
            s = txns[kind]
            if not s["count"]:
                continue
            print(
                f"  C={c:<3d} {kind:<8s} n={s['count']:<6d} "
                f"p50={s['p50']:<8d} p95={s['p95']:<8d} max={s['max']}"
            )


#: subcommands with flag sets of their own: the HTTP daemon, the
#: cross-engine comparison harness, the state-space explorer / mutation
#: benchmark, and the results/ writer over the experiment registry
_SUBCOMMANDS = {
    "serve": "repro.serve",
    "compare": "repro.bench.compare",
    "analyze": "repro.analysis.explore",
    "reproduce": "repro.bench.experiments",
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        # hand over before parsing
        return importlib.import_module(_SUBCOMMANDS[argv[0]]).main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduce MGS (ISCA 1996) experiments"
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="table3, table4, fig11, any figure key "
        f"({', '.join(FIGURES)}), 'all', or 'sweep <app>'",
    )
    parser.add_argument(
        "--processors", type=int, default=32, help="total processors (default 32)"
    )
    from repro.core.engine import engine_names

    parser.add_argument(
        "--protocol",
        choices=engine_names(),
        default="mgs",
        help="coherence engine driving software shared memory "
        "(default: mgs; see repro.protocols)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweeps (default: REPRO_JOBS or 1; "
        "0 means all cores); results are identical at any job count",
    )
    parser.add_argument(
        "--trace-pages",
        metavar="PAGES",
        default=None,
        help="trace protocol traffic for these vpns ('all' or e.g. '256,257'); "
        "prints transaction-grouped traces after each run",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="attach the protocol invariant sanitizer (repro.analysis) to "
        "every run; violations abort with the transaction trace",
    )
    add_network_args(parser)
    add_cache_args(parser)
    add_replay_args(parser)
    args = parser.parse_args(argv)
    try:
        network = network_from_args(args)
        overrides = {"protocol": args.protocol}
        if network is not None:
            overrides["network"] = network
        options = options_from_args(args)
        trace_pages = (
            parse_trace_pages(args.trace_pages)
            if args.trace_pages is not None
            else False
        )
    except ValueError as exc:
        parser.error(str(exc))

    cache = resolve_cache(None, options)
    jobs = resolve_jobs(options.jobs)
    tracers: list = []
    hook = None
    if trace_pages is not False:
        if jobs > 1:
            print(
                "--trace-pages needs in-process runs; ignoring --jobs",
                file=sys.stderr,
            )
            jobs = 1
        from repro.runtime import Runtime
        from repro.trace import ProtocolTracer

        def hook(rt):
            tracers.append(ProtocolTracer(rt, pages=trace_pages))

        Runtime.construction_hooks.append(hook)

    sanitizers: list = []
    analyze_hook = None
    if args.analyze:
        if jobs > 1:
            print(
                "--analyze needs in-process runs; ignoring --jobs",
                file=sys.stderr,
            )
            jobs = 1
        from repro.analysis import InvariantSanitizer
        from repro.runtime import Runtime

        def analyze_hook(rt):
            sanitizers.append(InvariantSanitizer(rt))

        Runtime.construction_hooks.append(analyze_hook)

    try:
        return _dispatch(parser, args, overrides, options, jobs, cache)
    finally:
        if cache is not None:
            print("\n" + cache_report(cache))
        if analyze_hook is not None:
            from repro.runtime import Runtime

            Runtime.construction_hooks.remove(analyze_hook)
            checked = sum(s.checked for s in sanitizers)
            print(
                f"\nanalysis: {len(sanitizers)} run(s) sanitized, "
                f"{checked} protocol messages checked, 0 violations"
            )
        if hook is not None:
            Runtime.construction_hooks.remove(hook)
            for tracer in tracers:
                if not len(tracer):
                    continue
                config = tracer.rt.config
                print(
                    f"\n--- trace: C={config.cluster_size} "
                    f"({len(tracer.transactions)} transactions, "
                    f"{len(tracer)} events) ---"
                )
                print(tracer.render_transactions(limit=50))


#: the printable registry entries, by CLI name
_ENTRIES = {"table3": "table3", "table4": "table4", "fig11": "fig11_lock_hit"}


def _dispatch(parser, args, overrides, options: RunOptions, jobs: int, cache) -> int:
    experiments = list(args.experiments)
    if experiments and experiments[0] == "sweep":
        if len(experiments) < 2 or experiments[1] not in ALL_APPS:
            parser.error(f"sweep needs an app name from {sorted(ALL_APPS)}")
        module = ALL_APPS[experiments[1]]
        sweep = run_sweep(
            module,
            total_processors=args.processors,
            jobs=jobs,
            cache=cache if cache is not None else False,
            cache_verify=args.cache_verify,
            overrides=overrides,
            options=options,
        )
        from repro.bench import render_breakdown_figure, render_metrics

        print(render_breakdown_figure(sweep, f"sweep: {experiments[1]}"))
        print()
        print(render_metrics(sweep))
        _print_network_stats(sweep)
        _print_transaction_stats(sweep)
        return 0

    if "all" in experiments:
        experiments = ["table3", "table4", *FIGURES, "fig11"]

    # Every sweep runs once, through one memo: figures one after another,
    # each farming its own points, so fig11 reuses the fig8-fig10 sweeps
    # when they have already run.  A figure sweep is retargeted at the
    # machine the flags name; the rest run as declared.
    memo = sweeper(cache, options, jobs, args.cache_verify)
    machine = tuple(overrides.items())

    def run_spec(spec: SweepSpec):
        if spec.total_processors is None:
            spec = dataclasses.replace(
                spec, total_processors=args.processors, overrides=machine
            )
        return memo(spec)

    for i, exp in enumerate(experiments):
        if i:
            print(f"\n{'=' * 72}")
        if exp in FIGURES:
            curve = run_spec(SweepSpec(FIGURES[exp].app))
            print(figure_report(exp, curve))
            _print_network_stats(curve)
            _print_transaction_stats(curve)
        elif exp in _ENTRIES:
            files = outputs(EXPERIMENTS[_ENTRIES[exp]], run_spec)
            print(files[".txt"], end="")
        else:
            print(f"unknown experiment {exp!r}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
