"""``perf compare A.json B.json``: judge report B against parent report A.

Each (end-to-end metric, workload) row gets one verdict, from the
samples of the two reports and the metric's bound in BENCHMARK.json:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least 9 in 10 sample pairs (ties count for
  neither) and the medians differ by more than A's quartile spread;
* ``unresolved``: the spread of either side exceeds the bound, unless
  every sample of B reads better than every sample of A;
* ``same``: otherwise.

Simulated counts must repeat exactly; any difference means the model
changed, and no speed result stands.  ``sim.events`` is exempt because
batching and replay may legitimately elide events.
"""

from __future__ import annotations

import json
from pathlib import Path

from perf.bench import load_spec, quartiles

#: counts that describe the simulated machine, not the simulator
SIMULATED_COUNTS = ("faults", "releases", "bus_messages", "bus_bytes", "inter_ssmp",
                    "lock_acquires", "lock_hits")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """One row's verdict for parent samples ``a`` and change samples ``b``."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "lower" else -1
    gain = sign * (qa["median"] - qb["median"])  # > 0: B improved
    if -gain > bound * abs(qa["median"]):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > qa["q3"] - qa["q1"]:
        return "better"
    spread = max((q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0
                 for q in (qa, qb))
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def simulated(counts: dict) -> dict:
    return {k: v for k, v in counts.items()
            if k.startswith("refs.") or k in SIMULATED_COUNTS}


def compare(path_a: str | Path, path_b: str | Path) -> int:
    """Print one row per (metric, workload); non-zero exit on any worse
    row, a higher failed share, or a changed simulated count."""
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = 0
    print(f"{'metric':<13} {'workload':<14} {'A median':>12} {'B median':>12} "
          f"{'change':>8}  verdict")
    for name in [w for w in a if w in b]:
        for m in spec["end_to_end"]:
            sa = a[name]["metrics"][m["name"]]
            sb = b[name]["metrics"][m["name"]]
            v = verdict(sa["samples"], sb["samples"], m["better"], m["bound"])
            change = (sb["median"] / sa["median"] - 1) if sa["median"] else 0.0
            print(f"{m['name']:<13} {name:<14} {sa['median']:>12.4f} "
                  f"{sb['median']:>12.4f} {100 * change:>7.1f}%  {v}")
            bad += v == "worse"
        fa, fb = a[name]["failed_share"], b[name]["failed_share"]
        v = "worse" if fb > fa else "same"
        print(f"{'failed_share':<13} {name:<14} {fa:>12.4f} {fb:>12.4f} {'':>8}  {v}")
        bad += v == "worse"
        ca, cb = simulated(a[name]["counts"]), simulated(b[name]["counts"])
        if ca != cb:
            diff = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
            print(f"{'counts':<13} {name:<14} model changed: {', '.join(diff)}")
            bad += 1
    missing = sorted(set(a) ^ set(b))
    if missing:
        print(f"workloads in only one report: {', '.join(missing)}")
    return 1 if bad else 0
