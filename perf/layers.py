"""Attribute profiled host time to the simulator's layers.

Every ``src/repro/**/*.py`` file belongs to exactly one layer, chosen
by the longest matching rule in :data:`LAYER_RULES`.  Functions outside
``src/repro`` -- builtins, C methods, the standard library, numpy,
generated dataclass methods -- have no layer of their own: their self
time is charged to the layer of whoever called them, split by the
per-caller self time that ``cProfile`` records.
"""

from __future__ import annotations

import os
from pathlib import Path

#: path under ``src/repro/`` -> layer.  A rule ending in ``/`` matches a
#: directory prefix, any other rule one file; the longest match wins.
LAYER_RULES = {
    "sim/": "sim",
    "runtime/": "runtime",
    "runtime/env.py": "runtime.env",
    "runtime/replay.py": "runtime.replay",
    "hw/": "hw",
    "svm/": "svm",
    "core/": "core",
    "core/bus.py": "core.bus",
    "core/messages.py": "core.bus",
    "protocols/__init__.py": "core",
    "protocols/mgs/": "protocols.mgs",
    "protocols/swdsm/": "protocols.swdsm",
    "protocols/sc_pages/": "protocols.sc_pages",
    "protocols/gcs/": "protocols.gcs",
    "machine/": "machine",
    "net/": "net",
    "sync/": "sync",
    "bench/": "harness",
    "bench/cache.py": "bench.cache",
    "apps/": "apps",
    "metrics/": "harness",
    "params.py": "harness",
    "cli.py": "harness",
    "trace.py": "harness",
    "__init__.py": "harness",
    # Tooling off every benchmark path; listed so no file is unmapped.
    "analysis/": "harness",
    "serve/": "harness",
}

#: every layer, in report order.  ``startup`` is timed from the child's
#: timestamps, not profiled; ``other`` holds time no layer called.
LAYERS = [
    "sim",
    "runtime.env",
    "runtime.replay",
    "runtime",
    "hw",
    "svm",
    "core.bus",
    "core",
    "protocols.mgs",
    "protocols.swdsm",
    "protocols.sc_pages",
    "protocols.gcs",
    "machine",
    "net",
    "sync",
    "bench.cache",
    "apps",
    "harness",
    "startup",
    "other",
]


def layer_of(relpath: str) -> str | None:
    """The layer of one file, given its path relative to ``src/repro``."""
    best = None
    for rule, layer in LAYER_RULES.items():
        hit = relpath.startswith(rule) if rule.endswith("/") else relpath == rule
        if hit and (best is None or len(rule) > len(best[0])):
            best = (rule, layer)
    return best[1] if best else None


class LayerMap:
    """Resolves profiler filenames to layers, relative to one source root."""

    def __init__(self, src_root: str | Path) -> None:
        self.prefix = os.path.realpath(src_root) + os.sep
        self._memo: dict[str, str | None] = {}

    def relpath(self, filename: str) -> str | None:
        """``filename`` relative to the source root, or None outside it."""
        real = os.path.realpath(filename) if filename.startswith(os.sep) else ""
        if not real.startswith(self.prefix):
            return None
        return real[len(self.prefix):].replace(os.sep, "/")

    def layer(self, filename: str) -> str | None:
        if filename not in self._memo:
            rel = self.relpath(filename)
            self._memo[filename] = layer_of(rel) if rel is not None else None
        return self._memo[filename]


def fold(stats: dict, layers: LayerMap) -> dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` table.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each caller to its edge's
    ``(nc, cc, tt, ct)``.  A function without a layer has its self time
    split over its callers by edge self time; a caller that has no
    layer either passes its share on up by edge cumulative time.  Time
    that reaches a root, or a cycle of layerless functions, is
    ``other``.
    """
    out = {name: 0.0 for name in LAYERS}
    shares: dict = {}

    def share_of(func, active: frozenset) -> dict[str, float]:
        """How a layerless ``func``'s time divides among layers."""
        layer = layers.layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(edge[3] for edge in callers.values())
        if func in active or total <= 0:
            return {"other": 1.0}
        result: dict[str, float] = {}
        for caller, edge in callers.items():
            for name, w in share_of(caller, active | {func}).items():
                result[name] = result.get(name, 0.0) + w * edge[3] / total
        shares[func] = result
        return result

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        layer = layers.layer(func[0])
        if layer is not None:
            out[layer] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0:
            out["other"] += tt
            continue
        for caller, edge in callers.items():
            for name, w in share_of(caller, frozenset({func})).items():
                out[name] += tt * w * edge[2] / edge_total
    return out


def call_count(stats: dict, layers: LayerMap, relpath: str, names) -> int:
    """Total calls into the functions ``names`` defined in ``relpath``."""
    return sum(
        nc
        for (filename, _line, name), (_cc, nc, *_rest) in stats.items()
        if name in names and layers.relpath(filename) == relpath
    )
