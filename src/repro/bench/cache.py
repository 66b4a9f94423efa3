"""Content-addressed run cache: never simulate the same point twice.

Every simulation in this repo is bit-for-bit deterministic: the result
of one sweep point is a pure function of the machine configuration, the
cost model, the runtime quantum, the workload (name + parameters), and
the simulator sources themselves.  This module memoizes those executions
behind a content-addressed key, so a warm figure-suite rerun serves
every point from disk and an incremental sweep (one new point added)
only simulates the new point.

Key derivation
--------------

``fingerprint_run`` hashes a canonical JSON preimage of:

* ``CACHE_SCHEMA`` — bumped when the entry layout changes;
* a **source fingerprint** — SHA-256 over every ``*.py`` file under
  ``src/repro/`` (path + contents), so *any* change to the simulator,
  protocol, apps, or cost plumbing invalidates the entire cache;
* the workload module name and its parameter dataclass;
* ``MachineConfig`` (including the nested ``NetworkConfig`` and
  ``ProtocolOptions``), the ``CostModel``, and the runtime quantum.

Entries live in a :class:`~repro.runtime.store.ContentStore` under the
run-cache directory (``RunOptions.run_cache``: ``REPRO_CACHE_DIR`` or
``.repro_cache/``): ``root/key[:2]/key.json``, one envelope carrying
the key's preimage (``fingerprint``) and the serialized ``AppRun``
(``run``), published atomically, identical bytes for identical keys.
A sidecar ``index.json`` records per-key wall-clock times; the sweep
runner uses them to schedule cache misses longest-job-first across
workers.

Verification
------------

``--cache-verify`` re-executes a deterministic sample of cache hits and
asserts the fresh result is **bit-for-bit identical** to the cached
payload, raising :class:`CacheVerifyError` on any divergence — a cheap
end-to-end determinism audit for the whole stack.

Enabling
--------

* CLI: ``--cache`` / ``--no-cache`` / ``--cache-dir`` / ``--cache-verify``;
* env: ``REPRO_CACHE=1`` (and/or ``REPRO_CACHE_DIR=<dir>``) turns the
  cache on for anything that routes through ``run_sweep``;
  ``REPRO_CACHE=0`` forces it off (both via ``RunOptions.run_cache``);
* API: pass a :class:`RunCache` to ``run_sweep``/``run_figure``.

Self-test
---------

``python -m repro.bench.cache selftest fig6`` regenerates one figure
twice against a fresh cache directory and fails unless the warm pass
serves *every* point from cache (hit counter == point count, zero
misses) and a verify pass reproduces the cached results bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

try:  # POSIX-only; the index merge degrades gracefully without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.params import CostModel, MachineConfig, machine_config_from_dict
from repro.runtime import DEFAULT_QUANTUM, RunOptions, RunResult
from repro.runtime.options import DEFAULT_CACHE_DIR
from repro.runtime.store import (
    ContentStore,
    canonical_json,
    publish,
    source_fingerprint,
)
from repro.runtime.thread import ThreadContext

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "CacheVerifyError",
    "RunCache",
    "resolve_cache",
    "source_fingerprint",
    "fingerprint_run",
    "app_run_to_dict",
    "app_run_from_dict",
    "run_result_to_dict",
    "run_result_from_dict",
    "canonical_json",
    "main",
]

#: bump when the entry layout or key preimage changes incompatibly
CACHE_SCHEMA = 2

#: ThreadContext fields that round-trip (everything except the generator)
_THREAD_FIELDS = (
    "pid",
    "time",
    "user",
    "lock",
    "barrier",
    "mgs",
    "done",
    "finish_time",
    "last_yield",
    "block_start",
)


class CacheVerifyError(AssertionError):
    """A cached result diverged from a fresh re-execution."""


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


def _params_token(params: Any) -> Any:
    """A stable, JSON-able token for a workload's parameter object."""
    if params is None:
        return None
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        return {
            "__dataclass__": type(params).__name__,
            "fields": dataclasses.asdict(params),
        }
    return repr(params)


def fingerprint_run(
    config: MachineConfig,
    costs: CostModel | None,
    quantum: int,
    workload: str,
    params: Any,
    source: str | None = None,
) -> tuple[str, dict]:
    """``(key, preimage)`` for one deterministic execution.

    ``key`` is the SHA-256 hex digest of the canonical-JSON preimage;
    the preimage itself is stored inside each entry for debuggability.
    """
    preimage = {
        "cache_schema": CACHE_SCHEMA,
        "source": source if source is not None else source_fingerprint(),
        "workload": workload,
        "params": _params_token(params),
        "config": dataclasses.asdict(config),
        "costs": dataclasses.asdict(costs if costs is not None else CostModel()),
        "quantum": quantum,
    }
    key = hashlib.sha256(canonical_json(preimage).encode()).hexdigest()
    return key, preimage


# ---------------------------------------------------------------------------
# RunResult / AppRun round-trip serialization
# ---------------------------------------------------------------------------


def run_result_to_dict(result: RunResult) -> dict:
    """Full-fidelity JSON form of a :class:`RunResult`.

    Unlike :func:`repro.metrics.export.run_result_to_dict` (a summary
    for plotting), this round-trips: ``run_result_from_dict`` rebuilds a
    ``RunResult`` whose breakdown, message flows, network stats, and
    transaction percentiles are bit-for-bit identical to the original.

    ``replay_cache`` is deliberately absent: how a run's phases were
    obtained (simulated, replayed in-process, replayed from the
    persistent store) is provenance, not behaviour, and including it
    would make a replay-warm run's cache entry differ from a cold one's
    — breaking ``check_identical`` and the byte-identity guarantees the
    warm-sweep CI checks rely on.
    """
    return {
        "config": dataclasses.asdict(result.config),
        "total_time": result.total_time,
        "threads": [
            {f: getattr(t, f) for f in _THREAD_FIELDS} for t in result.threads
        ],
        "lock_stats": {
            "acquires": result.lock_stats.acquires,
            "hits": result.lock_stats.hits,
            "token_transfers": result.lock_stats.token_transfers,
        },
        "protocol_stats": dict(result.protocol_stats),
        "messages_inter_ssmp": result.messages_inter_ssmp,
        "messages_intra_ssmp": result.messages_intra_ssmp,
        "cache_stats": dict(result.cache_stats),
        "network_stats": result.network_stats,
        "message_flows": result.message_flows,
        "transactions": result.transactions,
    }


def run_result_from_dict(d: dict) -> RunResult:
    """Inverse of :func:`run_result_to_dict`."""
    from repro.sync import LockStats

    threads = []
    for td in d["threads"]:
        t = ThreadContext(pid=td["pid"], gen=None)  # type: ignore[arg-type]
        for f in _THREAD_FIELDS[1:]:
            setattr(t, f, td[f])
        threads.append(t)
    return RunResult(
        config=machine_config_from_dict(d["config"]),
        total_time=d["total_time"],
        threads=threads,
        lock_stats=LockStats(**d["lock_stats"]),
        protocol_stats=dict(d["protocol_stats"]),
        messages_inter_ssmp=d["messages_inter_ssmp"],
        messages_intra_ssmp=d["messages_intra_ssmp"],
        cache_stats=dict(d["cache_stats"]),
        network_stats=d["network_stats"],
        message_flows=d["message_flows"],
        transactions=d["transactions"],
    )


def app_run_to_dict(run) -> dict:
    """JSON form of an :class:`~repro.apps.common.AppRun`."""
    return {
        "name": run.name,
        # bool(): apps may compute it as a numpy.bool_ (Barnes-Hut does)
        "valid": bool(run.valid),
        "max_error": run.max_error,
        "aux": json.loads(canonical_json(run.aux)),
        "result": run_result_to_dict(run.result),
    }


def app_run_from_dict(d: dict):
    """Inverse of :func:`app_run_to_dict`."""
    from repro.apps.common import AppRun

    return AppRun(
        name=d["name"],
        result=run_result_from_dict(d["result"]),
        valid=d["valid"],
        max_error=d["max_error"],
        aux=dict(d["aux"]),
    )


# ---------------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------------


class RunCache:
    """Persistent, content-addressed store of serialized ``AppRun``s.

    A :class:`~repro.runtime.store.ContentStore` whose entries carry the
    key's preimage (``fingerprint``) and the serialized run (``run``),
    plus what only the run cache has: :meth:`key_for`, the wall-time
    index behind longest-job-first scheduling, and verify sampling.  One
    instance tracks its own ``stats``; construct a fresh instance per
    sweep/CLI invocation when you want per-run counters.

    Safe for concurrent use by multiple threads *and* multiple processes
    sharing one directory (the ``repro.serve`` daemon does both): entries
    publish atomically, and the wall-time index is maintained
    read-merge-write under an advisory ``flock`` so concurrent writers
    cannot lose each other's entries.
    """

    def __init__(
        self,
        root: str | Path,
        source: str | None = None,
        verify_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < verify_fraction <= 1.0:
            raise ValueError("verify_fraction must be in (0, 1]")
        self.store = ContentStore(root, CACHE_SCHEMA, ("fingerprint", "run"))
        self.root = self.store.root
        self.stats = self.store.stats
        self.source = source
        self.verify_fraction = verify_fraction
        self._index: dict | None = None
        self._mutex = threading.Lock()

    def key_for(
        self,
        config: MachineConfig,
        costs: CostModel | None,
        workload: str,
        params: Any,
        quantum: int = DEFAULT_QUANTUM,
    ) -> tuple[str, dict]:
        return fingerprint_run(
            config, costs, quantum, workload, params, source=self.source
        )

    def get(self, key: str) -> dict | None:
        """The entry for ``key`` (its ``run`` is the serialized AppRun),
        or None: a miss, overwritten by the next :meth:`put`."""
        return self.store.get(key)

    def put(
        self,
        key: str,
        preimage: dict,
        run_payload: dict,
        wall_seconds: float,
    ) -> None:
        """Store one executed run under ``key`` and index its wall time."""
        self.store.put(key, fingerprint=preimage, run=run_payload)
        self._index_put(key, preimage, wall_seconds)

    # -- wall-time index (cost-aware scheduling) -----------------------

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    @contextmanager
    def _index_flock(self):
        """Advisory cross-process lock around index read-merge-write."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "index.lock", "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def _read_index_file(self) -> dict:
        try:
            index = json.loads(self._index_path.read_bytes())
        except (OSError, ValueError):
            index = None
        if not isinstance(index, dict) or not isinstance(index.get("entries"), dict):
            index = {"entries": {}}
        return index

    def _load_index(self) -> dict:
        if self._index is None:
            self._index = self._read_index_file()
        return self._index

    def _index_put(self, key: str, preimage: dict, wall_seconds: float) -> None:
        config = preimage["config"]
        record = {
            "workload": preimage["workload"],
            "cluster_size": config["cluster_size"],
            "protocol": config["protocol"],
            "wall_seconds": round(wall_seconds, 6),
        }
        with self._mutex, self._index_flock():
            # Re-read and merge under the lock: another process (or
            # thread through another RunCache) may have added entries
            # since we cached the index, and a blind write-back of our
            # stale copy would silently drop theirs.
            index = self._read_index_file()
            cached = self._index
            if cached is not None:
                for k, v in cached["entries"].items():
                    index["entries"].setdefault(k, v)
            index["entries"][key] = record
            self._index = index
            publish(self._index_path, (canonical_json(index) + "\n").encode())

    def estimate_seconds(
        self, workload: str, cluster_size: int, protocol: str = "mgs"
    ) -> float | None:
        """Expected wall time for one point, from past executions.

        Exact ``(workload, cluster_size, protocol)`` matches win; then
        the same workload and cluster size under any engine (engines
        differ far less than workloads do); then the mean over the
        workload; otherwise None (scheduler treats the point as
        potentially long and runs it first).  Index entries written
        before engines existed count as ``mgs``.
        """
        entries = self._load_index()["entries"].values()
        exact = [
            e["wall_seconds"]
            for e in entries
            if e["workload"] == workload
            and e["cluster_size"] == cluster_size
            and e.get("protocol", "mgs") == protocol
        ]
        if exact:
            return sum(exact) / len(exact)
        same_point = [
            e["wall_seconds"]
            for e in entries
            if e["workload"] == workload and e["cluster_size"] == cluster_size
        ]
        if same_point:
            return sum(same_point) / len(same_point)
        same = [e["wall_seconds"] for e in entries if e["workload"] == workload]
        if same:
            return sum(same) / len(same)
        return None

    # -- verification --------------------------------------------------

    def verify_sample(self, n_hits: int) -> list[int]:
        """Deterministic sample of hit positions to re-execute.

        Every ``1/verify_fraction``-th hit, always including the first —
        no randomness, so a verify run is itself reproducible.
        """
        if n_hits <= 0:
            return []
        stride = max(1, round(1.0 / self.verify_fraction))
        return list(range(0, n_hits, stride))

    def check_identical(self, key: str, entry: dict, fresh_payload: dict) -> None:
        """Assert a fresh execution matches the cached payload exactly."""
        cached = canonical_json(entry["run"])
        fresh = canonical_json(fresh_payload)
        if cached != fresh:
            fp = entry["fingerprint"]
            raise CacheVerifyError(
                f"cache verify failed for key {key}: a fresh execution of "
                f"{fp['workload']} (C={fp['config']['cluster_size']}) "
                "diverged from the cached result — the simulator is "
                "non-deterministic or the cache entry is stale/corrupt "
                f"({self.store.path(key)})"
            )
        self.stats.add(verified=1)

    # -- reporting -----------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready counters (the serve API and perf-smoke publish them)."""
        return {"dir": str(self.root), **self.stats.as_dict()}


def resolve_cache(
    cache: RunCache | bool | None, options: RunOptions
) -> RunCache | None:
    """Normalize the ``cache=`` argument accepted by the sweep API.

    ``None``: the store ``options.run_cache`` names, if any.
    ``True``/``False``: force on (in that directory, else the default
    one) or off.  A :class:`RunCache` instance passes through.
    """
    if isinstance(cache, RunCache):
        return cache
    if cache is None:
        cache = options.run_cache is not None
    return RunCache(options.run_cache or DEFAULT_CACHE_DIR) if cache else None


# ---------------------------------------------------------------------------
# CLI: stats / selftest
# ---------------------------------------------------------------------------


def _selftest(args) -> int:
    """Regenerate one figure twice; fail unless the warm pass is all hits."""
    import tempfile

    from repro.bench.figures import FIGURES, run_figure

    if args.figure not in FIGURES:
        print(f"unknown figure {args.figure!r} (want one of {list(FIGURES)})")
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = args.dir or tmp

        cold = RunCache(cache_dir)
        t0 = time.perf_counter()
        sweep_cold = run_figure(args.figure, args.processors, cache=cold)
        t_cold = time.perf_counter() - t0

        warm = RunCache(cache_dir)
        t0 = time.perf_counter()
        sweep_warm = run_figure(args.figure, args.processors, cache=warm)
        t_warm = time.perf_counter() - t0

        verify = RunCache(cache_dir, verify_fraction=1.0)
        run_figure(
            args.figure, args.processors, cache=verify, cache_verify=True
        )

    npoints = len(sweep_cold.points)
    report = {
        "figure": args.figure,
        "processors": args.processors,
        "points": npoints,
        "cold_seconds": round(t_cold, 3),
        "warm_seconds": round(t_warm, 3),
        "speedup_warm": round(t_cold / t_warm, 1) if t_warm > 0 else None,
        "cold": cold.summary(),
        "warm": warm.summary(),
        "verify": verify.summary(),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"run-cache selftest [{args.figure}]: cold {t_cold:.2f}s "
        f"({cold.stats.misses} misses), warm {t_warm:.2f}s "
        f"({warm.stats.hits} hits), verified {verify.stats.verified}"
    )

    failures = []
    if dataclasses.asdict(sweep_cold) != dataclasses.asdict(sweep_warm):
        failures.append("warm sweep diverged from cold sweep")
    if cold.stats.misses != npoints:
        failures.append(
            f"cold pass expected {npoints} misses, saw {cold.stats.misses}"
        )
    if warm.stats.hits != npoints or warm.stats.misses != 0:
        failures.append(
            f"warm pass simulated work: hits={warm.stats.hits} "
            f"misses={warm.stats.misses}, expected {npoints} hits / 0 misses"
        )
    if verify.stats.verified != npoints:
        failures.append(
            f"verify pass re-checked {verify.stats.verified} of {npoints} points"
        )
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.cache", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print cache directory statistics")
    p_stats.add_argument("--dir", default=None, help="cache directory")

    p_self = sub.add_parser(
        "selftest",
        help="regenerate a figure twice; fail unless warm pass is all hits",
    )
    p_self.add_argument("figure", nargs="?", default="fig6")
    p_self.add_argument("--processors", type=int, default=32)
    p_self.add_argument(
        "--dir", default=None, help="cache directory (default: a temp dir)"
    )
    p_self.add_argument("--out", default=None, help="write the JSON report here")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return _selftest(args)

    root = Path(
        args.dir or RunOptions.from_env().run_cache or DEFAULT_CACHE_DIR
    )
    entries = list(root.glob("*/*.json")) if root.is_dir() else []
    total = sum(p.stat().st_size for p in entries)
    print(f"cache dir: {root}")
    print(f"entries:   {len(entries)}")
    print(f"bytes:     {total}")
    return 0


if __name__ == "__main__":
    # Re-enter through the canonically imported module: ``python -m``
    # executes this file as ``__main__``, and an ``isinstance`` check
    # against ``__main__.RunCache`` would not match the
    # ``repro.bench.cache.RunCache`` the sweep machinery uses.
    from repro.bench.cache import main as _main

    raise SystemExit(_main())
