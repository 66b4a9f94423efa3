"""Run settings: one frozen object, resolved once per entry point.

:class:`RunOptions` holds every setting that changes *how* simulations
execute — the fast-path access engine, phase replay, the run cache,
the worker count — plus the problem-size scale of the benchmark
workloads.  Each entry point (the CLI, ``repro compare``,
the ``repro.serve`` daemon, or a library call with ``options=None``)
resolves it once and passes the object down explicitly — to
``run_sweep``, into every pool job, to each app's ``run`` and on to
:class:`~repro.runtime.Runtime`.  A pool worker therefore runs with
exactly the settings its parent resolved, whatever environment the
worker was forked under.

:meth:`RunOptions.from_env` is the only code in ``repro`` that reads
the process environment (the settings table in ``docs/PERFORMANCE.md``
lists each variable with its CLI flag and default).  Booleans accept
``1/true/yes/on`` and ``0/false/no/off`` in any case; anything else,
like a non-integer count, warns and keeps the default.  Precedence:
``REPRO_CACHE=0`` beats ``REPRO_CACHE_DIR``, and setting
``REPRO_CACHE_DIR`` alone turns the run cache on.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

__all__ = ["DEFAULT_CACHE_DIR", "RunOptions"]

DEFAULT_CACHE_DIR = ".repro_cache"

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _malformed(name: str, raw: str, want: str) -> None:
    warnings.warn(
        f"ignoring malformed {name}={raw!r} (want {want}); using the default",
        RuntimeWarning,
        stacklevel=4,
    )


@dataclass(frozen=True)
class RunOptions:
    """How to execute simulations.

    Every field but ``scale`` is bit-for-bit neutral: it changes wall
    time, never a simulated result.  ``run_cache`` is the run cache's
    directory, or None for no cache.  ``jobs=0`` means one worker per
    core.
    """

    fastpath: bool = True
    replay: bool = True
    run_cache: Path | None = None
    jobs: int = 1
    scale: int = 1

    @classmethod
    def from_env(cls, overrides: Mapping[str, str] | None = None) -> RunOptions:
        """The options the ``REPRO_*`` environment selects.

        ``overrides`` are variables applied on top of the environment
        for this resolution only; the CLI passes its flags this way, so
        a flag beats the environment through the same precedence rules.
        """
        overrides = overrides or {}

        def get(name: str) -> str:
            # one variable, not a copy of the whole environment
            return overrides.get(name, os.environ.get(name, ""))

        def flag(name: str) -> bool | None:
            raw = get(name).strip().lower()
            if raw in _TRUE:
                return True
            if raw in _FALSE:
                return False
            if raw:
                _malformed(name, raw, "1/true/yes/on or 0/false/no/off")
            return None

        def integer(name: str, default: int) -> int:
            raw = get(name).strip()
            try:
                return int(raw) if raw else default
            except ValueError:
                _malformed(name, raw, "an integer")
                return default

        cache_dir = get("REPRO_CACHE_DIR") or None
        use_cache = flag("REPRO_CACHE")
        if use_cache is None:
            use_cache = cache_dir is not None
        return cls(
            fastpath=not flag("REPRO_NO_FASTPATH"),
            replay=not flag("REPRO_NO_REPLAY"),
            run_cache=Path(cache_dir or DEFAULT_CACHE_DIR) if use_cache else None,
            jobs=integer("REPRO_JOBS", 1),
            scale=max(1, integer("REPRO_SCALE", 1)),
        )
