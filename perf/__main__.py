"""``python -m perf {run,trace,compare}``: see perf/README.md."""

import argparse
import sys

from perf.bench import run
from perf.compare import compare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "measure the end-to-end metrics (untraced)"),
        ("trace", "rerun each workload once under cProfile; per-layer metrics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--workload", action="append",
                       help="workload to run (repeatable; default: all)")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded; the workloads have no random inputs")
        p.add_argument("--seconds", type=float,
                       help="measuring time per workload (default: BENCHMARK.json)")
        p.add_argument("--trace", type=int, choices=(0, 1),
                       default=int(name == "trace"),
                       help="1: per-layer metrics from a profiled repetition")
        p.add_argument("--out", help="report path (default .perf_work/report.json)")
        p.add_argument("--quick", action="store_true",
                       help="smoke test: 4 processors, one repetition, "
                       "outputs unpinned")
    p = sub.add_parser("compare", help="judge report B against parent report A")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
