"""The content-addressed store beneath the run cache.

Entries are JSON files ``root/key[:2]/key.json``, one per SHA-256 hex
key.  Each is one envelope, ``{"schema": S, "key": K, <payload>}``,
written as :func:`canonical_json` plus a newline and published with one
atomic rename (:func:`publish`), so concurrent writers never leave a
torn entry and identical keys always carry identical bytes: racing
writers of one key are harmless, last one wins.

A read loads the file once and parses it once.  Anything unusable —
unreadable or undecodable bytes, JSON that is not an object, another
schema or key, a payload field missing or not of its declared JSON
type, or a payload the caller's ``decode`` cannot read — is a miss,
and the next :meth:`ContentStore.put` under that key overwrites it.
Nothing is ever evicted: an entry written under an older schema or
source tree is simply never asked for again.

The consumer defines what a key means: the run cache (``RunCache`` in
``bench/cache.py``) hashes a whole sweep point.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "ContentStore",
    "StoreStats",
    "canonical_json",
    "publish",
    "source_fingerprint",
]


def _json_default(obj: Any):
    """Serialize the odd numpy scalar an app tucks into ``aux``."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return repr(obj)


#: ``json.dumps`` with these options would build a new encoder per call
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_json_default
)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return _CANONICAL.encode(obj)


_SOURCE_FP: str | None = None


def source_fingerprint(root: Path | None = None) -> str:
    """SHA-256 over every ``*.py`` file under ``src/repro/``.

    Path-and-contents, so renames, deletions, and edits all change the
    digest.  The default root is memoized per process (the tree cannot
    change mid-run without restarting the interpreter anyway).
    """
    global _SOURCE_FP
    if root is None:
        if _SOURCE_FP is None:
            import repro

            _SOURCE_FP = _hash_tree(Path(repro.__file__).resolve().parent)
        return _SOURCE_FP
    return _hash_tree(Path(root))


def _hash_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


#: process-wide uniquifier for temporary file names
_TMP_COUNTER = itertools.count()


def publish(path: str | Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (tmp file + rename).

    The tmp name carries pid, thread and a process-wide sequence
    number: pid alone is not enough, because the serve daemon's worker
    threads share a pid, and two threads writing one path through one
    tmp name could publish a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(
        f".tmp.{os.getpid()}.{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )
    tmp.write_bytes(data)
    os.replace(tmp, path)


@dataclasses.dataclass
class StoreStats:
    """Traffic counters of one store, updated under a lock by :meth:`add`.

    ``hits`` counts entries read, ``misses`` lookups that found no
    usable entry, ``stores`` entries written, and ``verified`` hits a
    fresh execution reproduced bit-for-bit (run cache only).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    verified: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add(self, **counts: int) -> None:
        with self._lock:
            for name, n in counts.items():
                setattr(self, name, getattr(self, name) + n)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def total(cls, many) -> "StoreStats":
        """The sum of several stores' counters."""
        out = cls()
        for stats in many:
            out.add(**stats.as_dict())
        return out


class ContentStore:
    """Envelope-checked JSON entries under ``root`` (see module docstring).

    ``fields`` maps each payload field every entry of this store must
    carry to the Python type its JSON value parses to (``dict`` for an
    object, ``str`` for a string).  Safe for concurrent use by threads
    and processes sharing ``root``.
    """

    def __init__(self, root: str | Path, schema: int, fields: dict[str, type]):
        self.root = Path(root)
        self._dir = os.fspath(self.root)
        self.schema = schema
        self.fields = fields
        self.stats = StoreStats()

    def path(self, key: str) -> str:
        return os.path.join(self._dir, key[:2], f"{key}.json")

    def get(self, key: str, decode: Callable[[dict], Any] | None = None) -> Any:
        """The entry stored under ``key``, or None (a miss).

        ``decode`` turns the entry into what the caller consumes; an
        entry it cannot read (a ``KeyError``, ``TypeError`` or
        ``IndexError``) is a miss too.
        """
        try:
            with open(self.path(key), "rb") as f:
                raw = f.read()
            entry = json.loads(raw)
        except (OSError, ValueError):
            entry = None
        if (
            isinstance(entry, dict)
            and entry.get("schema") == self.schema
            and entry.get("key") == key
            and all(isinstance(entry.get(f), t) for f, t in self.fields.items())
        ):
            try:
                decoded = entry if decode is None else decode(entry)
            except (KeyError, TypeError, IndexError):
                pass
            else:
                self.stats.add(hits=1, bytes_read=len(raw))
                return decoded
        self.stats.add(misses=1)
        return None

    def put(self, key: str, **payload: Any) -> None:
        """Publish ``payload`` (this store's ``fields``) under ``key``."""
        blob = canonical_json({"schema": self.schema, "key": key, **payload})
        data = (blob + "\n").encode()
        publish(self.path(key), data)
        self.stats.add(stores=1, bytes_written=len(data))
