"""Run the workloads, one fresh child interpreter per repetition.

Children run one at a time, so the host's other core stays free for the
parent and the numbers stay free of scheduler contention.  Workloads
take turns, one repetition each, so host drift hits all of them alike.
Each workload starts repetitions until they have used ``--seconds``,
and runs at least ``MIN_REPS`` times.

The reference host is a shared VM whose speed drifts by up to 2x over
minutes.  So every child also times a fixed pure-Python loop
(``child.reference_loop``) before, after, and every half second during
its calls, and each time it reports is scaled by ``REFERENCE_LOOP_S``
over that loop's median time in the same child: host seconds at the
reference host's typical speed.  The unscaled times stay in
the report, as ``raw``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perf.child import WORKLOADS
from perf.layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perf_work"

#: timed repetitions per workload, however long each takes
MIN_REPS = 2
#: set-up samples per workload; set-up-only children fill the gap
MIN_SETUPS = 7
#: a child that runs longer than this has hung
CHILD_TIMEOUT_S = 150
#: ``reference_loop``'s typical time on the reference host (2 vCPU
#: Xeon at 2.0 GHz, Python 3.11.7)
REFERENCE_LOOP_S = 0.0425


def load_spec() -> dict:
    """The benchmark contract: metric names, units, directions, bounds."""
    return json.loads(SPEC_FILE.read_text())


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile, and sample count."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _refs(counts: dict) -> int:
    return sum(v for k, v in counts.items() if k.startswith("refs."))


class Session:
    """One ``perf run``: a scratch directory and the child environment."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self.dir = WORK / f"run-{os.getpid()}"
        self.scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
        # Every REPRO_* setting removed, so each store and engine option
        # takes its default; bytecode cached under the scratch area; the
        # checkout's sources first on the path.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
        )
        self.env = env

    def __enter__(self) -> "Session":
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def child(self, *args: str) -> dict:
        """Run one child to completion and return its record.

        ``setup_s`` runs from just before the spawn to the end of the
        child's imports and ``source_fingerprint``.  A child that fails
        returns a record holding ``crashed`` instead.
        """
        result = self.dir / "child.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "perf.child", "--result", str(result), *args]
        if self.quick:
            cmd.append("--quick")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.dir, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"crashed": f"timed out after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0:
            return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        rec = json.loads(result.read_text())
        rec["elapsed_s"] = time.monotonic() - t_spawn
        rec["setup_s"] = rec["t_ready"] - t_spawn
        rec["import_s"] = rec["t_imported"] - rec["t_start"]
        rec["fingerprint_s"] = rec["t_ready"] - rec["t_imported"]
        rec["scale"] = REFERENCE_LOOP_S / statistics.median(rec["calib_s"])
        return rec

    def calls(self, workload: str, trace: bool = False,
              store: Path | None = None) -> dict:
        """One repetition of ``workload``'s calls.  A cold comparison gets
        an empty store; a warm one reads ``store``."""
        args = ["--workload", workload]
        if workload == "compare_cold":
            store = store or self.dir / "cold_store"
            shutil.rmtree(store, ignore_errors=True)
        if store is not None:
            args += ["--store", str(store)]
        if trace:
            args.append("--trace")
        return self.child(*args)

    def warm_store(self, source: str) -> tuple[Path, dict | None, dict]:
        """``(store, fill, counts)``: the RunCache the warm repetitions
        read, and what filling it simulated.

        The store is filled by an untimed cold comparison once per
        source tree and kept under .perf_work with the fill's counts,
        so later runs skip the fill; ``fill`` is the record of a fill
        made by this run, if any.
        """
        store = WORK / f"warm-{self.quick:d}-{source[:16]}"
        done = store / "fill.json"
        if done.is_file():
            return store, None, json.loads(done.read_text())
        for old in WORK.glob(f"warm-{self.quick:d}-*"):
            shutil.rmtree(old, ignore_errors=True)
        fill = self.calls("compare_cold", store=store)
        if fill.get("failed") == 0:
            (store / "fill.tmp").write_text(json.dumps(fill["counts"]))
            (store / "fill.tmp").replace(done)
        return store, fill, fill.get("counts", {})


class WorkloadRun:
    """Every child record of one workload, and the metrics they give."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.reps: list[dict] = []  # timed, untraced
        self.traced: dict | None = None
        self.fill: dict | None = None  # compare_warm's untimed cold run
        self.fill_counts: dict = {}
        self.probes: list[dict] = []  # set-up only

    def call_records(self) -> list[dict]:
        return [r for r in (*self.reps, self.traced, self.fill) if r is not None]

    def spent(self) -> float:
        return sum(r.get("elapsed_s", 0.0) for r in self.reps)

    def attempted(self) -> int:
        return sum(r.get("attempted", len(WORKLOADS[self.name]))
                   for r in self.call_records())

    def failed(self) -> int:
        return sum(r["failed"] if "failed" in r else len(WORKLOADS[self.name])
                   for r in self.call_records())

    def errors(self) -> list[str]:
        out = []
        for r in (*self.call_records(), *self.probes):
            out.extend(r.get("errors", []))
            if "crashed" in r:
                out.append(f"child failed: {r['crashed']}")
        counts = {json.dumps(r["counts"], sort_keys=True)
                  for r in self.reps if "counts" in r}
        if len(counts) > 1:
            out.append("simulated counts differ between repetitions")
        return out

    def counts(self) -> dict:
        """Simulated counts of one repetition; they repeat exactly.  Warm
        repetitions simulate nothing and return what the fill simulated."""
        if self.name == "compare_warm":
            return self.fill_counts
        return next((r["counts"] for r in self.reps if "counts" in r), {})

    def _untraced(self) -> list[dict]:
        children = (*self.reps, self.fill, *self.probes)
        return [r for r in children if r and "calib_s" in r]

    def raw(self) -> dict[str, list[float]]:
        """Unscaled per-child times, and the reference loop's."""
        return {
            "wall_s": [r["wall_s"] for r in self.reps if "wall_s" in r],
            "setup_s": [r["setup_s"] for r in self._untraced()],
            "reference_loop_s": [c for r in self._untraced() for c in r["calib_s"]],
        }

    def samples(self) -> dict[str, list[float]]:
        """Per-child values of the end-to-end metrics, times scaled."""
        reps = [r for r in self.reps if "wall_s" in r]
        walls = [r["wall_s"] * r["scale"] for r in reps]
        refs = _refs(self.counts())
        return {
            "wall_s": walls,
            "refs_per_s": [_ratio(refs, w) for w in walls],
            "setup_s": [r["setup_s"] * r["scale"] for r in self._untraced()],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, from the traced repetition."""
        t = self.traced
        if t is None or "layers" not in t:
            return {}
        scale = t["scale"]
        self_s = {k: v * scale for k, v in t["layers"].items()}
        self_s["startup"] = t["setup_s"] * scale
        total = sum(self_s.values())
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = _ratio(self_s[layer], total)
        c = t["counts"]
        refs = _refs(c)
        phases = t["phases_executed"] + c.get("phases_replayed", 0)
        cache = t["run_cache"]
        out.update({
            "trace_overhead": _ratio(
                t["wall_s"], statistics.median(self.raw()["wall_s"])
            ),
            "hw.refs": refs,
            "hw.hit_ratio": _ratio(c.get("refs.hit", 0), refs),
            "hw.refs_per_call": _ratio(refs, t["hw_calls"]),
            "runtime.env.bypass_ratio": _ratio(
                c.get("envs_bypassed", 0), c.get("envs", 0)
            ),
            "sim.events": c.get("events", 0),
            "core.bus.messages": c.get("bus_messages", 0),
            "core.bus.bytes": c.get("bus_bytes", 0),
            "net.inter_ssmp": c.get("inter_ssmp", 0),
            "sync.lock_acquires": c.get("lock_acquires", 0),
            "sync.lock_hit_ratio": _ratio(
                c.get("lock_hits", 0), c.get("lock_acquires", 0)
            ),
            "protocols.faults": c.get("faults", 0),
            "protocols.releases": c.get("releases", 0),
            "runtime.replay.phases": phases,
            "runtime.replay.replayed_ratio": _ratio(
                c.get("phases_replayed", 0), phases
            ),
            "bench.cache.hits": cache.get("hits", 0),
            "bench.cache.misses": cache.get("misses", 0),
            "bench.cache.bytes_read": cache.get("bytes_read", 0),
            "bench.cache.bytes_written": cache.get("bytes_written", 0),
            "startup.import_s": t["import_s"] * scale,
            "startup.fingerprint_s": t["fingerprint_s"] * scale,
        })
        return out


def measure(session: Session, names: list[str], seconds: float, trace: bool,
            min_reps: int, min_setups: int) -> dict[str, WorkloadRun]:
    """Every child of one run, workloads interleaved round-robin."""
    runs = {name: WorkloadRun(name) for name in names}
    # Untimed: compiles bytecode and warms the disk cache.
    source = session.child("--setup-only").get("source", "unknown")
    stores = {}
    if "compare_warm" in runs:
        warm = runs["compare_warm"]
        stores["compare_warm"], warm.fill, warm.fill_counts = session.warm_store(source)
    active = list(names)
    while active:
        for name in list(active):
            run = runs[name]
            rec = session.calls(name, store=stores.get(name))
            run.reps.append(rec)
            done = len(run.reps) >= min_reps and run.spent() >= seconds
            if trace or done or "crashed" in rec:
                active.remove(name)
    for name in names:
        run = runs[name]
        if trace:
            run.traced = session.calls(name, trace=True, store=stores.get(name))
        for _ in range(min_setups - len(run.samples()["setup_s"])):
            run.probes.append(session.child("--setup-only"))
    return runs


def environment(session: Session) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "env_scrubbed": {"rule": "REPRO_*", "present": session.scrubbed},
    }


def summarize(runs: dict[str, WorkloadRun], spec: dict, trace: bool) -> dict:
    """The report's per-workload section."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {}
    for name, run in runs.items():
        samples = run.samples()
        attempted, failed = run.attempted(), run.failed()
        entry = {
            "calls": [" ".join(map(str, c)) for c in WORKLOADS[name]],
            "attempted": attempted,
            "failed": failed,
            "failed_share": _ratio(failed, attempted),
            "errors": run.errors(),
            "metrics": {
                metric: {"unit": unit, **quartiles(samples[metric]),
                         "samples": samples[metric]}
                for metric, unit in units.items()
            },
            "counts": run.counts(),
            "raw": {k: {**quartiles(v), "samples": v} for k, v in run.raw().items()},
        }
        if trace:
            entry["layers"] = run.layer_metrics()
        out[name] = entry
    return out


def result_line(workloads: dict, spec: dict, trace: bool) -> dict:
    """The last line of stdout: correctness and every metric's value.

    Untraced runs give the end-to-end metrics' medians; traced runs the
    per-layer metrics.  With several workloads, metrics nest by workload.
    """
    group = spec["per_layer"] if trace else spec["end_to_end"]

    def values(entry):
        if trace:
            return {m["name"]: {"value": entry["layers"].get(m["name"], 0.0),
                                "unit": m["unit"]} for m in group}
        return {m["name"]: {"value": entry["metrics"][m["name"]]["median"],
                            "unit": m["unit"]} for m in group}

    metrics = {name: values(entry) for name, entry in workloads.items()}
    if len(metrics) == 1:
        metrics = next(iter(metrics.values()))
    return {
        "correct": all(not e["errors"] for e in workloads.values()),
        "attempted": sum(e["attempted"] for e in workloads.values()),
        "failed": sum(e["failed"] for e in workloads.values()),
        "metrics": metrics,
    }


def print_tables(workloads: dict, trace: bool) -> None:
    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>3}  unit")
    for name, entry in workloads.items():
        for metric, q in entry["metrics"].items():
            print(f"{name:<14} {metric:<12} {q['median']:>12.4f} {q['q1']:>12.4f} "
                  f"{q['q3']:>12.4f} {q['n']:>3}  {q['unit']}")
        print(f"{name:<14} {'failed_share':<12} {entry['failed_share']:>12.4f} "
              f"{'':>12} {'':>12} {entry['attempted']:>3}  calls")
    if not trace:
        return
    for name, entry in workloads.items():
        layers = entry["layers"]
        print(f"\n{name}: self time by layer (trace overhead "
              f"{layers.get('trace_overhead', 0):.2f}x)")
        for layer in LAYERS:
            print(f"  {layer:<20} {layers.get(layer + '.self_s', 0):>9.3f} s "
                  f"{100 * layers.get(layer + '.share', 0):>6.1f}%")
        for key, value in layers.items():
            if not key.endswith((".self_s", ".share")) and key != "trace_overhead":
                print(f"  {key:<32} {value:,.4g}")


def run(args) -> int:
    """``perf run`` / ``perf trace``: measure, print, write the report."""
    if not ((ROOT / "src" / "repro" / "__init__.py").is_file() and SPEC_FILE.is_file()):
        print(f"perf: no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"perf: unknown workload(s) {unknown}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    min_reps, min_setups = (MIN_REPS, MIN_SETUPS)
    if args.quick:
        seconds, min_reps, min_setups = 0, 1, 1
    with Session(args.quick) as session:
        t0 = time.monotonic()
        runs = measure(session, names, seconds, trace, min_reps, min_setups)
        report = {
            "schema": 1,
            "settings": {"workloads": names, "seed": args.seed, "seconds": seconds,
                         "trace": trace, "quick": args.quick,
                         "elapsed_s": time.monotonic() - t0},
            "environment": environment(session),
            "workloads": summarize(runs, spec, trace),
        }
    out = Path(args.out) if args.out else WORK / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_tables(report["workloads"], trace)
    for name, entry in report["workloads"].items():
        for error in entry["errors"]:
            print(f"{name}: {error}", file=sys.stderr)
    print(f"report: {out}")
    line = result_line(report["workloads"], spec, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
