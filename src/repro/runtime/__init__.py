"""Runtime: the programming API and thread driver for simulated apps."""

from repro.runtime.env import Env
from repro.runtime.options import RunOptions
from repro.runtime.runner import DEFAULT_QUANTUM, RunResult, Runtime
from repro.runtime.shared import SharedArray

__all__ = [
    "DEFAULT_QUANTUM",
    "Env",
    "RunOptions",
    "Runtime",
    "RunResult",
    "SharedArray",
]
