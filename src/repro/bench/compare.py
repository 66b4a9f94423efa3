"""Cross-engine comparison harness: Figure-6-style curves per protocol.

Runs the same applications under several coherence engines (see
:mod:`repro.protocols`) and renders the execution-time-vs-cluster-size
curves side by side — the experiment MGS's Figure 6 runs against a
fixed-grain baseline, generalized to any set of registered engines.

Exposed as ``python -m repro.cli compare``::

    python -m repro.cli compare --apps jacobi,water --protocols mgs,swdsm

Every point still validates its application output against the
sequential golden run, so a comparison doubles as a cross-engine
conformance check.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass

from repro.apps import ALL_APPS
from repro.bench.figures import bench_params
from repro.bench.report import render_breakdown_figure, render_table
from repro.bench.sweep import run_sweep
from repro.core.engine import engine_names
from repro.metrics import ClusterSweep
from repro.runtime import RunOptions

__all__ = [
    "ProtocolComparison",
    "run_comparison",
    "render_comparison",
    "comparison_to_csv",
    "main",
]


@dataclass
class ProtocolComparison:
    """Sweeps for every (app, engine) pair of one comparison run."""

    apps: list[str]
    protocols: list[str]
    total_processors: int
    #: ``sweeps[app][protocol]`` -> :class:`ClusterSweep`
    sweeps: dict[str, dict[str, ClusterSweep]]

    def sweep(self, app: str, protocol: str) -> ClusterSweep:
        return self.sweeps[app][protocol]


def run_comparison(
    apps: list[str],
    protocols: list[str],
    total_processors: int = 32,
    sizes: list[int] | None = None,
    jobs: int | None = None,
    cache=None,
    options: RunOptions | None = None,
) -> ProtocolComparison:
    """Sweep every app (at its :func:`repro.bench.figures.bench_params`
    size) under every engine, each sweep on the paper's machine with
    ``overrides={"protocol": engine}``.

    Unknown app or engine names raise ``KeyError``/``ValueError`` up
    front, before any simulation runs.  ``options`` None resolves the
    environment here, once, for every sweep.
    """
    if options is None:
        options = RunOptions.from_env()
    known = engine_names()
    for proto in protocols:
        if proto not in known:
            raise ValueError(
                f"unknown protocol {proto!r}; registered engines: {known}"
            )
    modules = {}
    for app in apps:
        if app not in ALL_APPS:
            raise KeyError(
                f"unknown app {app!r}; known apps: {sorted(ALL_APPS)}"
            )
        modules[app] = ALL_APPS[app]

    sweeps: dict[str, dict[str, ClusterSweep]] = {}
    for app in apps:
        params = bench_params(app, options.scale)
        sweeps[app] = {}
        for proto in protocols:
            sweeps[app][proto] = run_sweep(
                modules[app],
                params=params,
                total_processors=total_processors,
                sizes=sizes,
                name=app,
                jobs=jobs,
                cache=cache,
                overrides={"protocol": proto},
                options=options,
            )
    return ProtocolComparison(
        apps=list(apps),
        protocols=list(protocols),
        total_processors=total_processors,
        sweeps=sweeps,
    )


def render_comparison(comparison: ProtocolComparison) -> str:
    """Per-protocol breakdown curves plus a cross-engine summary table.

    For each app: one Figure-6-style stacked-breakdown chart per engine,
    then a table of total times with each engine's slowdown relative to
    the best engine at that cluster size.
    """
    out = []
    for app in comparison.apps:
        per_proto = comparison.sweeps[app]
        for proto in comparison.protocols:
            sweep = per_proto[proto]
            out.append(
                render_breakdown_figure(
                    sweep, f"{app} under {proto} (runtime breakdown)"
                )
            )
            out.append("")

        sizes = [p.cluster_size for p in per_proto[comparison.protocols[0]].points]
        best = {
            c: min(
                per_proto[proto].point(c).total_time
                for proto in comparison.protocols
            )
            for c in sizes
        }
        rows = []
        for proto in comparison.protocols:
            cells = [proto]
            for c in sizes:
                t = per_proto[proto].point(c).total_time
                slow = t / best[c] if best[c] else 1.0
                cells.append(f"{t:,} ({slow:.2f}x)")
            rows.append(cells)
        out.append(f"{app}: total cycles by engine (slowdown vs best)")
        out.append(
            render_table(["engine"] + [f"C={c}" for c in sizes], rows)
        )
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def comparison_to_csv(comparison: ProtocolComparison) -> str:
    """One row per (app, protocol, cluster size): the comparison series."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["app", "protocol", "cluster_size", "total_time", "user", "lock",
         "barrier", "protocol_time"]
    )
    for app in comparison.apps:
        for proto in comparison.protocols:
            for p in comparison.sweeps[app][proto].points:
                writer.writerow(
                    [
                        app,
                        proto,
                        p.cluster_size,
                        p.total_time,
                        round(p.breakdown.get("user", 0.0)),
                        round(p.breakdown.get("lock", 0.0)),
                        round(p.breakdown.get("barrier", 0.0)),
                        round(p.breakdown.get("mgs", 0.0)),
                    ]
                )
    return buf.getvalue()


def _csv_list(value: str) -> list[str]:
    items = [part.strip() for part in value.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("need a comma-separated list")
    return items


def main(argv: list[str] | None = None) -> int:
    """The ``repro compare`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro compare",
        description="Compare coherence engines on the paper's applications",
    )
    parser.add_argument(
        "--apps",
        type=_csv_list,
        default=["jacobi", "water"],
        metavar="A,B,...",
        help=f"comma-separated app names (known: {', '.join(sorted(ALL_APPS))})",
    )
    parser.add_argument(
        "--protocols",
        type=_csv_list,
        default=["mgs", "swdsm"],
        metavar="P,Q,...",
        help=f"comma-separated engine names (registered: "
        f"{', '.join(engine_names())})",
    )
    parser.add_argument(
        "--processors", type=int, default=32,
        help="total processors (default 32)",
    )
    parser.add_argument(
        "--sizes",
        default=None,
        metavar="C,C,...",
        help="cluster sizes to sweep (default: all powers of two up to P)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes per sweep (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--csv", action="store_true",
        help="emit the comparison as CSV instead of rendered figures",
    )
    from repro.cli import add_replay_args, options_from_args

    add_replay_args(parser)
    args = parser.parse_args(argv)

    sizes = None
    if args.sizes is not None:
        try:
            sizes = [int(part, 0) for part in _csv_list(args.sizes)]
        except ValueError as exc:
            parser.error(f"bad --sizes: {exc}")
    try:
        options = options_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        comparison = run_comparison(
            args.apps,
            args.protocols,
            total_processors=args.processors,
            sizes=sizes,
            options=options,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.csv:
        sys.stdout.write(comparison_to_csv(comparison))
    else:
        sys.stdout.write(render_comparison(comparison))
    return 0


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
