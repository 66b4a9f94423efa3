"""One repetition of one benchmark workload, in a fresh interpreter.

``python -m perf run`` starts this module once per repetition.  It
records when set-up ended, makes the workload's public calls, checks
every output against the committed ``results/`` files, and writes one
JSON record to ``--result``.  Counters come from public results only:
``RunCache.stats``, and the ``Runtime`` objects handed to
``Runtime.construction_hooks`` (their ``cache.stats``, ``sim``,
``protocol``, ``machine``, ``locks``, ``envs`` and ``phase_recorder``).
The child also times ``reference_loop`` around and during its calls, so
the parent can scale its times to the reference host's speed.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

#: figure key -> committed rendering (``.txt``) and series (``.csv``)
FIGURE_FILES = {
    "fig6": "fig06_jacobi",
    "fig7": "fig07_matmul",
    "fig8": "fig08_tsp",
    "fig9": "fig09_water",
    "fig10": "fig10_barnes_hut",
}

COMPARE_APPS = ["jacobi", "water"]
COMPARE_ENGINES = ["mgs", "swdsm", "sc_pages"]
COMPARE_FILE = "compare_jacobi_water"

#: The public calls of one repetition.  ``("figure", key)`` is
#: ``run_figure`` + ``figure_report``; ``("point", key, C)`` is the
#: ``run_sweep`` point of that figure at cluster size C; ``("compare",
#: mode)`` is ``run_comparison`` + ``render_comparison`` through a
#: ``RunCache`` that is empty (``cold``) or was filled beforehand
#: (``warm``).
WORKLOADS = {
    "figs_hit": [("figure", "fig6"), ("figure", "fig7"), ("point", "fig10", 8)],
    "figs_protocol": [("point", "fig8", 8)],
    "compare_cold": [("compare", "cold")],
    "compare_warm": [("compare", "warm")],
}

#: ``hw.refs_per_call`` counts calls into these CacheSystem methods
HW_ENTRY_POINTS = ("access", "access_run", "hit_run", "hit_lines", "record_hits")

#: the processor count of every call; ``--quick`` shrinks it
PROCESSORS = 32
QUICK_PROCESSORS = 4


class Counters:
    """Simulated counts summed over every Runtime built during the calls.

    A Runtime's counters are final once the next one is constructed
    (points run serially), so each is folded then and dropped, keeping
    at most one finished machine alive.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._last = None

    def hook(self, rt) -> None:
        self.flush()
        self._last = rt

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def flush(self) -> None:
        rt, self._last = self._last, None
        if rt is None:
            return
        for cls, n in rt.cache.stats.items():
            self._add(f"refs.{cls.value}", n)
        stats = rt.protocol.stats.as_dict()
        self._add("faults", stats.get("faults", 0))
        self._add("releases", stats.get("releases", 0))
        flows = rt.protocol.bus.flow_summary().values()
        self._add("bus_messages", sum(f["count"] for f in flows))
        self._add("bus_bytes", sum(f["bytes"] for f in flows))
        self._add("inter_ssmp", rt.machine.stats.inter_ssmp)
        self._add("lock_acquires", sum(lk.stats.acquires for lk in rt.locks))
        self._add("lock_hits", sum(lk.stats.hits for lk in rt.locks))
        self._add("events", rt.sim.events_processed)
        self._add("envs", len(rt.envs))
        self._add("envs_bypassed", sum(e.fastpath_bypassed for e in rt.envs))
        recorder = rt.phase_recorder
        self._add("phases_replayed", recorder.replayed if recorder else 0)


def reference_loop(n: int = 40_000) -> int:
    """Fixed pure-Python work in the simulator's style: slotted objects,
    method calls, dict lookups, list churn and a heap.  It never changes,
    so the time it takes measures how fast the host runs at the moment."""

    class Node:
        __slots__ = ("count", "recent")

        def __init__(self) -> None:
            self.count = 0
            self.recent: list[int] = []

        def touch(self, amount: int) -> int:
            self.count += amount
            return self.count & 7

    nodes: dict[int, Node] = {}
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = Node()
        total += node.touch(i & 15)
        node.recent.append(i)
        if len(node.recent) > 8:
            node.recent.pop(0)
        heapq.heappush(heap, (total & 4095, i))
        if len(heap) > 256:
            total ^= heapq.heappop(heap)[1]
    return total


def calibrate() -> float:
    """Seconds one ``reference_loop`` takes now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Calibration:
    """Reference-loop samples: one before the calls, one after each, and,
    untraced, one every ``PERIOD_S`` while a call runs, from a timer
    signal.  ``inside`` is the time the timer's samples took, which the
    calls' wall time excludes."""

    PERIOD_S = 0.5

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.inside = 0.0

    def sample(self) -> None:
        self.samples.append(calibrate())

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.inside += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    @contextmanager
    def during(self):
        """Sample periodically while the body runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _expected(name: str) -> str:
    return (RESULTS / name).read_text()


def _csv_row(text: str, app: str, cluster_size: int) -> str | None:
    """The line of a figure's series for one cluster size."""
    for line in text.splitlines():
        if line.startswith(f"{app},{cluster_size},"):
            return line
    return None


def make_call(call, store: Path | None, quick: bool):
    """``(label, run, check, cache)`` for one call.

    ``run()`` makes the public call and renders its output; ``check``
    compares that output, outside the timed region, and returns the
    failures.  ``cache`` is the call's RunCache, if it has one.
    ``--quick`` runs a smaller machine whose outputs nothing
    pins, so it checks only what does not depend on the size.
    """
    from repro.bench.cache import RunCache
    from repro.bench.compare import render_comparison, run_comparison
    from repro.bench.figures import FIGURES, bench_params, figure_report, run_figure
    from repro.bench.sweep import run_sweep
    from repro.metrics import cluster_sizes, sweep_to_csv

    kind = call[0]
    procs = QUICK_PROCESSORS if quick else PROCESSORS
    if kind == "figure":
        key = call[1]
        name = f"{FIGURE_FILES[key]}.txt"

        def run():
            sweep = run_figure(key, procs, jobs=1, cache=False)
            return figure_report(key, sweep) + "\n"

        def check(text):
            if quick or text == _expected(name):
                return []
            return [f"{key}: report differs from results/{name}"]

        return key, run, check, None
    if kind == "point":
        key, c = call[1], min(call[2], procs)
        spec = FIGURES[key]
        name = f"{FIGURE_FILES[key]}.csv"

        def run():
            sweep = run_sweep(
                spec.module, params=bench_params(spec.app),
                total_processors=procs, sizes=[c], name=spec.app, jobs=1, cache=False,
            )
            return _csv_row(sweep_to_csv(sweep), spec.app, c)

        def check(row):
            want = _csv_row(_expected(name), spec.app, c)
            if quick or (want is not None and row == want):
                return []
            return [f"{key} C={c}: row {row!r} differs from results/{name}"]

        return f"{key}@C={c}", run, check, None
    if kind == "compare":
        mode = call[1]
        name = f"{COMPARE_FILE}.txt"
        cache = RunCache(store)

        def run():
            return render_comparison(
                run_comparison(
                    COMPARE_APPS, COMPARE_ENGINES, procs, jobs=1, cache=cache
                )
            )

        def check(text):
            errors = []
            if not quick and text != _expected(name):
                errors.append(f"compare: output differs from results/{name}")
            points = (
                len(COMPARE_APPS) * len(COMPARE_ENGINES) * len(cluster_sizes(procs))
            )
            want = (points, 0) if mode == "warm" else (0, points)
            got = (cache.stats.hits, cache.stats.misses)
            if got != want:
                errors.append(f"compare {mode}: hits/misses {got}, expected {want}")
            return errors

        return f"compare_{mode}", run, check, cache
    raise ValueError(f"unknown call kind {kind!r}")


def run_workload(args, Runtime) -> dict:
    """Make one repetition's calls; time and check them."""
    calls = [make_call(c, args.store, args.quick) for c in WORKLOADS[args.workload]]
    counters, calib = Counters(), Calibration()
    Runtime.construction_hooks.append(counters.hook)
    profile = None
    if args.trace:
        import cProfile

        profile = cProfile.Profile()
    wall = 0.0
    calib.sample()
    errors: list[str] = []
    failed = 0
    run_cache: dict[str, int] = {}
    for label, run, check, cache in calls:
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            with calib.during() if profile is None else nullcontext():
                output = run()
        except Exception as exc:  # a failed call is counted, not fatal
            problems = [f"{label}: {type(exc).__name__}: {exc}"]
        else:
            problems = None
        finally:
            if profile is not None:
                profile.disable()
            wall += time.perf_counter() - t0
        counters.flush()
        if problems is None:
            problems = check(output)
        if cache is not None:
            for key, n in cache.stats.as_dict().items():
                run_cache[key] = run_cache.get(key, 0) + n
        if problems:
            failed += 1
            errors.extend(problems)
        calib.sample()
    Runtime.construction_hooks.remove(counters.hook)
    record = {
        "wall_s": wall - calib.inside,
        "calib_s": calib.samples,
        "attempted": len(calls),
        "failed": failed,
        "errors": errors,
        "counts": counters.counts,
        "run_cache": run_cache,
    }
    if profile is not None:
        record.update(trace_record(profile))
    return record


def trace_record(profile) -> dict:
    """Per-layer self seconds and the call counts the layer ratios need."""
    import pstats

    from perf.layers import LayerMap, call_count, fold

    stats = pstats.Stats(profile).stats
    layers = LayerMap(ROOT / "src" / "repro")
    return {
        "layers": fold(stats, layers),
        "hw_calls": call_count(stats, layers, "hw/coherence.py", HW_ENTRY_POINTS),
        "phases_executed": call_count(
            stats, layers, "runtime/runner.py", ("_start_phase",)
        ),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m perf.child")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--store", type=Path, help="RunCache directory for compare calls")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace", action="store_true", help="profile the calls")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # The imports every workload's calls need: part of set-up.
    import repro
    import repro.bench.compare  # noqa: F401
    import repro.bench.figures  # noqa: F401
    import repro.protocols  # noqa: F401  (the engine registry)
    from repro.bench.cache import source_fingerprint
    from repro.runtime import Runtime

    t_imported = time.monotonic()
    source = source_fingerprint()
    t_ready = time.monotonic()

    src = (ROOT / "src" / "repro").resolve()
    if Path(repro.__file__).resolve().parent != src:
        print(f"imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    record = {
        "t_start": T_START,
        "t_imported": t_imported,
        "t_ready": t_ready,
        "source": source,
    }
    if args.setup_only:
        record["calib_s"] = [calibrate() for _ in range(3)]
    else:
        record.update(run_workload(args, Runtime))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
