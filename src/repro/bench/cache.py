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
* the workload module name and its parameter dataclass — the params
  that run: ``run_sweep`` resolves ``params=None`` to the app's
  defaults (:func:`repro.apps.default_params`) before keying;
* ``MachineConfig`` (including the nested ``NetworkConfig`` and
  ``ProtocolOptions``), the ``CostModel``, and the runtime quantum.

The preimage text is spliced from one token per part without copying
the dataclasses: the config is walked field by field, and the cost
model and parameter tokens are memoized on each field's value and type.
It equals ``canonical_json`` of the ``dataclasses.asdict`` forms, so a
key is the same digest of the same text as before.

Entries live in a :class:`~repro.runtime.store.ContentStore` under the
run-cache directory (``RunOptions.run_cache``: ``REPRO_CACHE_DIR`` or
``.repro_cache/``): ``root/key[:2]/key.json``, one envelope carrying
the key's preimage text (``fingerprint``, a JSON string) and the
serialized ``AppRun`` (``run``, a JSON object), published atomically,
identical bytes for identical keys.

The stored run holds no ``MachineConfig``: the key's preimage pins it,
so a hit takes the requested one.  Its threads are rows of
``_THREAD_FIELDS`` values.  A hit costs one file read and one JSON
parse, and the sweep folds its point straight from the parsed entry.

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
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
from pathlib import Path
from typing import Any

from repro.params import CostModel, MachineConfig
from repro.runtime import DEFAULT_QUANTUM, RunOptions, RunResult
from repro.runtime.options import DEFAULT_CACHE_DIR
from repro.runtime.store import ContentStore, canonical_json, source_fingerprint

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "CacheVerifyError",
    "RunCache",
    "resolve_cache",
    "source_fingerprint",
    "fingerprint_run",
    "app_run_to_dict",
    "run_result_to_dict",
    "thread_breakdown",
    "canonical_json",
    "main",
]

#: bump when the entry layout or key preimage changes incompatibly
CACHE_SCHEMA = 3

#: the ThreadContext fields a stored thread row holds, in row order
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
_thread_row = operator.attrgetter(*_THREAD_FIELDS)

#: a stored thread row's ``(user, lock, barrier, mgs, finish_time)``, the
#: tuple :func:`~repro.runtime.runner.cycle_breakdown` sums
thread_breakdown = operator.itemgetter(
    *map(_THREAD_FIELDS.index, ("user", "lock", "barrier", "mgs", "finish_time"))
)


class CacheVerifyError(AssertionError):
    """A cached result diverged from a fresh re-execution."""


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


#: value types a memoized token may hold: JSON renders each the one way
_SCALARS = frozenset((int, float, str, bool, type(None)))

_DEFAULT_COSTS = CostModel()


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _plain(value: Any) -> Any:
    """``value`` as ``dataclasses.asdict`` renders it in JSON, copying no
    leaf: dataclasses nest only as fields of dataclasses here."""
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {n: _plain(getattr(value, n)) for n in _field_names(type(value))}
    return value


@functools.lru_cache(maxsize=64)
def _scalar_token(cls: type, values: tuple, types: tuple) -> str:
    # ``types`` is only part of the key: 1 == 1.0 == True, but their
    # JSON differs, so equal values of other types must not share a token.
    return canonical_json(dict(zip(_field_names(cls), values)))


def _token(obj: Any) -> str:
    """Canonical JSON of dataclass ``obj``'s ``asdict`` form.

    A dataclass whose fields all hold scalars (``CostModel``, the apps'
    parameters) is rendered once per distinct value and type of every
    field, so the points of a sweep share it.
    """
    values = tuple([getattr(obj, n) for n in _field_names(type(obj))])
    types = tuple(map(type, values))
    if _SCALARS.issuperset(types):
        return _scalar_token(type(obj), values, types)
    return canonical_json(_plain(obj))


def _params_token(params: Any) -> str:
    """A stable JSON token for a workload's parameter object."""
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        name = canonical_json(type(params).__name__)
        return f'{{"__dataclass__":{name},"fields":{_token(params)}}}'
    return canonical_json(None if params is None else repr(params))


def fingerprint_run(
    config: MachineConfig,
    costs: CostModel | None,
    quantum: int,
    workload: str,
    params: Any,
    source: str | None = None,
) -> tuple[str, str]:
    """``(key, preimage)`` for one deterministic execution.

    ``preimage`` is the canonical-JSON text of the key's inputs and
    ``key`` its SHA-256 hex digest; :meth:`RunCache.put` stores the
    text inside the entry for debuggability.  The text is spliced
    from per-part tokens, keys in sorted order, and equals
    ``canonical_json`` of the dict of ``asdict`` forms it stands for.
    """
    if source is None:
        source = source_fingerprint()
    preimage = (
        f'{{"cache_schema":{CACHE_SCHEMA},'
        f'"config":{canonical_json(_plain(config))},'
        f'"costs":{_token(costs if costs is not None else _DEFAULT_COSTS)},'
        f'"params":{_params_token(params)},'
        f'"quantum":{canonical_json(quantum)},'
        f'"source":{canonical_json(source)},'
        f'"workload":{canonical_json(workload)}}}'
    )
    return hashlib.sha256(preimage.encode()).hexdigest(), preimage


# ---------------------------------------------------------------------------
# RunResult / AppRun serialization
# ---------------------------------------------------------------------------


def run_result_to_dict(result: RunResult) -> dict:
    """The one JSON form of a :class:`RunResult`: what a run-cache
    entry holds.  It keeps everything a sweep point is folded from:
    one row of ``_THREAD_FIELDS`` values per thread (the breakdown is
    summed from them), the lock, protocol and cache stats, message
    flows, network stats and transaction percentiles.  The config is
    absent: the run-cache key's preimage already holds it.

    ``replay_cache`` is deliberately absent: how a run's phases were
    obtained (simulated or replayed) is provenance, not behaviour, and
    including it would make a replayed run's cache entry differ from an
    executed one's — breaking ``check_identical`` and the byte-identity
    guarantees the warm-sweep CI checks rely on.
    """
    return {
        "total_time": result.total_time,
        "threads": [list(_thread_row(t)) for t in result.threads],
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


# ---------------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------------


class RunCache:
    """Persistent, content-addressed store of serialized ``AppRun``s.

    A :class:`~repro.runtime.store.ContentStore` whose entries carry the
    key's preimage text (``fingerprint``) and the serialized run (``run``),
    plus what only the run cache has: :meth:`key_for` and verify
    sampling.  One instance tracks its own ``stats``; construct a fresh
    instance per sweep/CLI invocation when you want per-run counters.

    Safe for concurrent use by multiple threads *and* multiple processes
    sharing one directory (the ``repro.serve`` daemon does both): every
    entry publishes atomically, and identical keys carry identical bytes.
    """

    def __init__(
        self,
        root: str | Path,
        source: str | None = None,
        verify_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < verify_fraction <= 1.0:
            raise ValueError("verify_fraction must be in (0, 1]")
        self.store = ContentStore(root, CACHE_SCHEMA, {"fingerprint": str, "run": dict})
        self.root = self.store.root
        self.stats = self.store.stats
        self.source = source
        self.verify_fraction = verify_fraction

    def key_for(
        self,
        config: MachineConfig,
        costs: CostModel | None,
        workload: str,
        params: Any,
        quantum: int = DEFAULT_QUANTUM,
    ) -> tuple[str, str]:
        return fingerprint_run(
            config, costs, quantum, workload, params, source=self.source
        )

    def get(self, key: str, decode=None) -> Any:
        """The entry for ``key`` (its ``run`` is the serialized AppRun),
        or None: a miss, overwritten by the next :meth:`put`.  With
        ``decode``, what it returns for the entry; an entry it cannot
        read is a miss (see :meth:`ContentStore.get`)."""
        return self.store.get(key, decode)

    def put(self, key: str, preimage: str, run_payload: dict) -> None:
        """Store one executed run under ``key`` and its preimage text."""
        self.store.put(key, fingerprint=preimage, run=run_payload)

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
        """Assert a fresh execution matches the cached payload exactly.

        The entry's preimage text is parsed only on a divergence, to
        name the workload and cluster size in the error.
        """
        cached = canonical_json(entry["run"])
        fresh = canonical_json(fresh_payload)
        if cached != fresh:
            fp = json.loads(entry["fingerprint"])
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
# CLI: stats
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.cache", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print cache directory statistics")
    p_stats.add_argument("--dir", default=None, help="cache directory")

    args = parser.parse_args(argv)
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
