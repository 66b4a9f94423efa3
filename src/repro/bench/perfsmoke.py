"""Performance smoke harness: guards the simulator's throughput.

Runs a small fixed workload set, reports wall-clock and events/sec, and
writes ``BENCH_perfsmoke.new.json`` (``--out``).  CI replays it against
the committed baseline ``BENCH_perfsmoke.json`` and fails on
regression — the repo's "as fast as the hardware allows" north star,
made enforceable; ``--out`` may not name the ``--check`` baseline.  Each gated benchmark carries its
own tolerance (see ``GATES``): the hit-path microbenchmark is tight,
the end-to-end protocol workloads get the slack their wall-clock noise
needs, and the replay speedup is gated as a ratio so a cached-sweep
outlier can never mask a fast-path regression (every gate is checked
independently).

Usage::

    PYTHONPATH=src python -m repro.bench.perfsmoke            # measure
    PYTHONPATH=src python -m repro.bench.perfsmoke --quick    # fewer reps
    PYTHONPATH=src python -m repro.bench.perfsmoke --check BENCH_perfsmoke.json

Workloads:

* ``hit_block`` — the hit-dominated inner loop: every processor streams
  ``read_block`` over its own resident buffer.  Measured with the
  fast-path access engine on and off (``speedup_fastpath`` is the
  headline number for the hot-path engine).
* ``jacobi`` — one Figure 6 point (remote-miss heavy, protocol-bound):
  the end-to-end shape the figure suite stresses.
* ``swdsm_jacobi`` — the same point under the single-grain software-DSM
  baseline engine (``protocol="swdsm"``), so the comparison harness's
  rival engines are throughput-gated alongside MGS.
* ``sweep`` — a small Jacobi cluster-size sweep, serial and with two
  worker processes; the harness asserts both are byte-identical before
  recording anything.
* ``sweep_cached`` — the same sweep cold and warm through the
  content-addressed run cache (``repro.bench.cache``): the warm pass
  must serve every point from cache (hits == points, zero misses), a
  verify pass must reproduce every cached result bit-for-bit, and the
  report records the cold/warm wall-clock plus hit/miss/byte counters.
* ``figure_replay`` — the repeated-phase sweep (``repro.apps.scanphase``)
  with phase replay on and off: the closed-form path must produce the
  identical simulated time and event count, and ``speedup_replay`` is
  the headline number for the replay engine.
* ``write_block_fast`` — the write-side twin of ``hit_block``: every
  processor streams ``write_block`` over its own buffer, exercising the
  block walker's write-hit lines (fast vs slow engine, cycle-checked).

Every run cross-checks fast-vs-slow cycle counts, so the perf smoke is
also a determinism smoke.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time

from repro.apps import jacobi, scanphase
from repro.bench.cache import RunCache
from repro.bench.sweep import run_sweep
from repro.params import MachineConfig
from repro.runtime import RunOptions, Runtime

__all__ = ["run_perfsmoke", "check_against_baseline", "main", "GATES"]

#: bump when workloads change incompatibly (baselines stop comparing)
SCHEMA = 4

#: Per-benchmark regression gates: benchmark -> (metric, tolerance).
#: CI fails when a gated metric drops below ``baseline * (1 - tol)``.
#: The in-process microbenchmark is stable enough for a tight gate; the
#: protocol-bound end-to-end runs jitter more on shared CI hardware;
#: the replay gate is a wall-clock *ratio* (on/off in one process), so
#: machine speed cancels out and it can be tight again.
GATES: dict[str, tuple[str, float]] = {
    "hit_block_fast": ("words_per_sec", 0.30),
    "write_block_fast": ("words_per_sec", 0.30),
    "jacobi_fast": ("events_per_sec", 0.35),
    "swdsm_jacobi_fast": ("events_per_sec", 0.35),
    "figure_replay": ("speedup_replay", 0.25),
}


def _hit_block_runtime(fastpath: bool, nwords: int, passes: int) -> Runtime:
    config = MachineConfig(total_processors=4, cluster_size=2)
    rt = Runtime(config, options=RunOptions(fastpath=fastpath))
    arr = rt.array("buf", nwords * config.total_processors)
    arr.init([float(i) for i in range(nwords * config.total_processors)])

    def worker(env):
        base = arr.addr(env.pid * nwords)
        for _ in range(passes):
            yield from env.read_block(base, nwords)
        yield from env.barrier()

    rt.spawn_all(worker)
    return rt


def _bench_hit_block(fastpath: bool, nwords: int, passes: int) -> dict:
    rt = _hit_block_runtime(fastpath, nwords, passes)
    words = nwords * passes * rt.config.total_processors
    t0 = time.perf_counter()
    result = rt.run()
    seconds = time.perf_counter() - t0
    return {
        "seconds": round(seconds, 4),
        "words": words,
        "words_per_sec": round(words / seconds),
        "events_per_sec": round(rt.sim.events_processed / seconds),
        "total_time": result.total_time,
        "cache_stats": dict(result.cache_stats),
    }


def _write_block_runtime(fastpath: bool, nwords: int, passes: int) -> Runtime:
    config = MachineConfig(total_processors=4, cluster_size=2)
    rt = Runtime(config, options=RunOptions(fastpath=fastpath))
    arr = rt.array("buf", nwords * config.total_processors)
    arr.init([float(i) for i in range(nwords * config.total_processors)])

    def worker(env):
        base = arr.addr(env.pid * nwords)
        values = [float(env.pid + w) for w in range(nwords)]
        for _ in range(passes):
            yield from env.write_block(base, values)
        yield from env.barrier()

    rt.spawn_all(worker)
    return rt


def _bench_write_block(fastpath: bool, nwords: int, passes: int) -> dict:
    """Hit-dominated write streaming through the block walker.

    The first pass faults ownership in; every later pass is all write
    hits, so throughput measures ``write_block``'s line walk (fast)
    against the word-at-a-time store loop (slow).
    """
    rt = _write_block_runtime(fastpath, nwords, passes)
    words = nwords * passes * rt.config.total_processors
    t0 = time.perf_counter()
    result = rt.run()
    seconds = time.perf_counter() - t0
    return {
        "seconds": round(seconds, 4),
        "words": words,
        "words_per_sec": round(words / seconds),
        "events_per_sec": round(rt.sim.events_processed / seconds),
        "total_time": result.total_time,
        "cache_stats": dict(result.cache_stats),
    }


def _bench_jacobi(
    fastpath: bool,
    n: int,
    iterations: int,
    protocol: str = "mgs",
    reps: int = 1,
) -> dict:
    config = MachineConfig(
        total_processors=32, cluster_size=8, protocol=protocol
    )
    params = jacobi.JacobiParams(n=n, iterations=iterations)
    # Best-of-reps wall clock: every rep is deterministic (identical
    # events and cycle counts), so the minimum is the run least
    # disturbed by the host — the standard noise estimator for timing
    # on shared hardware.
    seconds = None
    for _ in range(reps):
        rt = Runtime(config, options=RunOptions(fastpath=fastpath))
        final = jacobi.build(rt, params)
        t0 = time.perf_counter()
        result = rt.run()
        elapsed = time.perf_counter() - t0
        del final
        if seconds is None or elapsed < seconds:
            seconds = elapsed
    return {
        "seconds": round(seconds, 4),
        "events": rt.sim.events_processed,
        "events_per_sec": round(rt.sim.events_processed / seconds),
        "total_time": result.total_time,
    }


def _bench_sweep(n: int, iterations: int) -> dict:
    params = jacobi.JacobiParams(n=n, iterations=iterations)
    t0 = time.perf_counter()
    serial = run_sweep(jacobi, params=params, total_processors=8, jobs=1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_sweep(jacobi, params=params, total_processors=8, jobs=2)
    t_parallel = time.perf_counter() - t0
    if dataclasses.asdict(serial) != dataclasses.asdict(parallel):
        raise AssertionError("parallel sweep diverged from serial sweep")
    return {
        "serial_seconds": round(t_serial, 4),
        "parallel_seconds": round(t_parallel, 4),
        "identical": True,
        "total_times": [p.total_time for p in serial.points],
    }


def _bench_cached_sweep(n: int, iterations: int) -> dict:
    """Cold vs warm run-cache sweep; warm must be all hits, zero misses."""
    params = jacobi.JacobiParams(n=n, iterations=iterations)
    with tempfile.TemporaryDirectory() as tmp:
        cold = RunCache(tmp)
        t0 = time.perf_counter()
        sweep_cold = run_sweep(
            jacobi, params=params, total_processors=8, jobs=1, cache=cold
        )
        t_cold = time.perf_counter() - t0
        warm = RunCache(tmp)
        t0 = time.perf_counter()
        sweep_warm = run_sweep(
            jacobi, params=params, total_processors=8, jobs=1, cache=warm
        )
        t_warm = time.perf_counter() - t0
        verify = RunCache(tmp, verify_fraction=1.0)
        run_sweep(
            jacobi,
            params=params,
            total_processors=8,
            jobs=1,
            cache=verify,
            cache_verify=True,
        )
    npoints = len(sweep_cold.points)
    if dataclasses.asdict(sweep_cold) != dataclasses.asdict(sweep_warm):
        raise AssertionError("warm cached sweep diverged from cold sweep")
    if warm.stats.hits != npoints or warm.stats.misses != 0:
        raise AssertionError(
            f"warm cached sweep simulated work: {warm.stats.as_dict()}"
        )
    if verify.stats.verified != npoints:
        raise AssertionError(
            f"cache verify re-checked {verify.stats.verified}/{npoints} points"
        )
    return {
        "cold_seconds": round(t_cold, 4),
        "warm_seconds": round(t_warm, 4),
        "speedup_warm": round(t_cold / t_warm, 1) if t_warm > 0 else None,
        "points": npoints,
        "cache_cold": cold.summary(),
        "cache_warm": warm.summary(),
        "cache_verify": verify.summary(),
    }


def _bench_figure_replay(phases: int, reps: int = 1) -> dict:
    """Repeated-phase sweep with replay on vs off (same simulated run)."""
    config = MachineConfig(total_processors=8, cluster_size=2)
    params = scanphase.ScanPhaseParams(phases=phases)

    def one(replay: bool) -> dict:
        # Best-of-reps, as in _bench_jacobi: the replay-on run is short
        # enough that a single scheduling hiccup would swing the gated
        # on/off ratio.
        seconds = None
        for _ in range(reps):
            rt = Runtime(config, options=RunOptions(replay=replay))
            scanphase.build(rt, params)
            t0 = time.perf_counter()
            result = rt.run()
            elapsed = time.perf_counter() - t0
            if seconds is None or elapsed < seconds:
                seconds = elapsed
        recorder = rt.phase_recorder
        return {
            "seconds": round(seconds, 4),
            "events": rt.sim.events_processed,
            "events_per_sec": round(rt.sim.events_processed / seconds),
            "total_time": result.total_time,
            "phases_replayed": recorder.replayed if recorder else 0,
        }

    # Warm the interpreter/numpy paths so the ratio measures the
    # simulator, not first-call overheads.
    scanphase.run(config, scanphase.ScanPhaseParams(phases=4))
    off = one(False)
    on = one(True)
    if (on["total_time"], on["events"]) != (off["total_time"], off["events"]):
        raise AssertionError("phase replay diverged from execution (scanphase)")
    return {
        "phases": params.phases,
        "replay": on,
        "noreplay": off,
        "speedup_replay": round(off["seconds"] / on["seconds"], 2),
    }


def run_perfsmoke(quick: bool = False) -> dict:
    """Measure the workload set and return the report dict."""
    if quick:
        nwords, passes, jn, jit, phases = 2048, 8, 32, 3, 16
        jreps = 1
    else:
        # Jacobi at n=256 keeps enough interior (all-hit) rows per
        # boundary row for the batched fast paths to show their real
        # gain; n=64 at 32 processors is boundary rows only.
        nwords, passes, jn, jit, phases = 4096, 30, 256, 3, 32
        jreps = 5

    hit_fast = _bench_hit_block(True, nwords, passes)
    hit_slow = _bench_hit_block(False, nwords, passes)
    if (hit_fast["total_time"], hit_fast["cache_stats"]) != (
        hit_slow["total_time"],
        hit_slow["cache_stats"],
    ):
        raise AssertionError("fastpath diverged from slow path (hit_block)")

    wb_fast = _bench_write_block(True, nwords, passes)
    wb_slow = _bench_write_block(False, nwords, passes)
    if (wb_fast["total_time"], wb_fast["cache_stats"]) != (
        wb_slow["total_time"],
        wb_slow["cache_stats"],
    ):
        raise AssertionError("fastpath diverged from slow path (write_block)")

    jac_fast = _bench_jacobi(True, jn, jit, reps=jreps)
    jac_slow = _bench_jacobi(False, jn, jit, reps=jreps)
    if jac_fast["total_time"] != jac_slow["total_time"]:
        raise AssertionError("fastpath diverged from slow path (jacobi)")

    sw_fast = _bench_jacobi(True, jn, jit, protocol="swdsm", reps=jreps)
    sw_slow = _bench_jacobi(False, jn, jit, protocol="swdsm", reps=jreps)
    if sw_fast["total_time"] != sw_slow["total_time"]:
        raise AssertionError(
            "fastpath diverged from slow path (swdsm_jacobi)"
        )

    sweep = _bench_sweep(32, 3)
    cached = _bench_cached_sweep(32, 3)
    replay = _bench_figure_replay(phases, reps=jreps)

    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "gates": {
            bench: {"metric": metric, "tolerance": tol}
            for bench, (metric, tol) in GATES.items()
        },
        "benchmarks": {
            "hit_block_fast": hit_fast,
            "hit_block_slow": hit_slow,
            "write_block_fast": wb_fast,
            "write_block_slow": wb_slow,
            "jacobi_fast": jac_fast,
            "jacobi_slow": jac_slow,
            "swdsm_jacobi_fast": sw_fast,
            "swdsm_jacobi_slow": sw_slow,
            "sweep": sweep,
            "sweep_cached": cached,
            "figure_replay": replay,
        },
        "speedups": {
            "hit_block_fastpath": round(
                hit_slow["seconds"] / hit_fast["seconds"], 2
            ),
            "jacobi_fastpath": round(
                jac_slow["seconds"] / jac_fast["seconds"], 2
            ),
            "swdsm_jacobi_fastpath": round(
                sw_slow["seconds"] / sw_fast["seconds"], 2
            ),
            "write_block_fastpath": round(
                wb_slow["seconds"] / wb_fast["seconds"], 2
            ),
            "warm_cache": cached["speedup_warm"],
            "figure_replay": replay["speedup_replay"],
        },
    }


def check_against_baseline(report: dict, baseline: dict) -> list[str]:
    """Per-benchmark regressions vs the baseline; empty list means pass.

    Every entry of :data:`GATES` is checked independently against its own
    tolerance — all failures are reported, so one benchmark's outlier
    never hides another benchmark's regression.
    """
    failures = []
    if baseline.get("schema") != report.get("schema"):
        return [
            f"baseline schema {baseline.get('schema')} != {report.get('schema')}; "
            "re-measure the baseline"
        ]
    if baseline.get("quick") != report.get("quick"):
        return [
            "baseline and report use different workload sizes "
            "(--quick mismatch); throughput is not comparable"
        ]
    for bench, (metric, tolerance) in GATES.items():
        old = baseline.get("benchmarks", {}).get(bench, {}).get(metric)
        new = report.get("benchmarks", {}).get(bench, {}).get(metric)
        if not old or not new:
            continue
        floor = old * (1.0 - tolerance)
        if new < floor:
            failures.append(
                f"{bench}.{metric} regressed: {new} < {floor:.2f} "
                f"(baseline {old}, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perfsmoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller workloads (CI-friendly)"
    )
    parser.add_argument(
        "--out",
        default="BENCH_perfsmoke.new.json",
        metavar="PATH",
        help="where to write the report (default BENCH_perfsmoke.new.json)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline report; exit 1 when any "
        "per-benchmark gate regresses (see GATES)",
    )
    args = parser.parse_args(argv)
    if args.check and os.path.realpath(args.out) == os.path.realpath(args.check):
        print(
            f"perfsmoke: --out {args.out} is the --check baseline; "
            "write the report elsewhere",
            file=sys.stderr,
        )
        return 2

    report = run_perfsmoke(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    b = report["benchmarks"]
    print(f"perfsmoke ({'quick' if args.quick else 'full'}):")
    print(
        f"  hit_block   fast {b['hit_block_fast']['seconds']:.3f}s"
        f" ({b['hit_block_fast']['words_per_sec']:,} words/s)"
        f"   slow {b['hit_block_slow']['seconds']:.3f}s"
        f"   speedup {report['speedups']['hit_block_fastpath']}x"
    )
    print(
        f"  jacobi      fast {b['jacobi_fast']['seconds']:.3f}s"
        f" ({b['jacobi_fast']['events_per_sec']:,} events/s)"
        f"   slow {b['jacobi_slow']['seconds']:.3f}s"
        f"   speedup {report['speedups']['jacobi_fastpath']}x"
    )
    print(
        f"  swdsm_jacobi fast {b['swdsm_jacobi_fast']['seconds']:.3f}s"
        f" ({b['swdsm_jacobi_fast']['events_per_sec']:,} events/s)"
        f"   slow {b['swdsm_jacobi_slow']['seconds']:.3f}s"
        f"   speedup {report['speedups']['swdsm_jacobi_fastpath']}x"
    )
    print(
        f"  sweep       serial {b['sweep']['serial_seconds']:.3f}s"
        f"   2 jobs {b['sweep']['parallel_seconds']:.3f}s   byte-identical"
    )
    print(
        f"  run cache   cold {b['sweep_cached']['cold_seconds']:.3f}s"
        f"   warm {b['sweep_cached']['warm_seconds']:.3f}s"
        f"   speedup {report['speedups']['warm_cache']}x"
        f"   ({b['sweep_cached']['cache_warm']['hits']}/"
        f"{b['sweep_cached']['points']} hits, verified)"
    )
    print(
        f"  write_block fast {b['write_block_fast']['seconds']:.3f}s"
        f" ({b['write_block_fast']['words_per_sec']:,} words/s)"
        f"   slow {b['write_block_slow']['seconds']:.3f}s"
        f"   speedup {report['speedups']['write_block_fastpath']}x"
    )
    fr = b["figure_replay"]
    print(
        f"  figure_replay on {fr['replay']['seconds']:.3f}s"
        f"   off {fr['noreplay']['seconds']:.3f}s"
        f"   speedup {fr['speedup_replay']}x"
        f"   ({fr['replay']['phases_replayed']}/{fr['phases']} phases"
        " replayed, identical)"
    )
    print(f"  report -> {args.out}")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_against_baseline(report, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"  baseline check vs {args.check}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
