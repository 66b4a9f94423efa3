"""Digests of :meth:`repro.runtime.runner.Runtime.snapshot`, the one
canonical machine-state snapshot that phase replay and the model checker
both hash (completeness is checked by ``tests/test_snapshot.py``)."""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["array_digest", "digest"]


def array_digest(arr: np.ndarray) -> bytes:
    """Fast content hash of a page-sized numpy array."""
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def digest(state: object) -> str:
    """16-byte blake2b hex digest of a snapshot (or any plain-data value)."""
    return hashlib.blake2b(repr(state).encode(), digest_size=16).hexdigest()
