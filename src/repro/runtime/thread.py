"""Per-processor thread context and time-bucket accounting.

Each simulated processor runs one application thread, written as a Python
generator.  The thread owns a local clock that may run ahead of the
global simulated clock by up to one quantum; blocking operations (faults,
locks, barriers, releases) synchronize it back through the event queue.

Runtime breakdown buckets follow section 5.2.1 of the paper:

* ``user`` — useful cycles, software address translation, and hardware
  shared-memory stall time;
* ``lock`` / ``barrier`` — executing synchronization code and waiting on
  synchronization conditions;
* ``mgs`` — all time spent running the MGS protocol, including protocol
  handler cycles stolen from the thread by messages serviced on its
  processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

__all__ = ["ThreadContext"]


@dataclass(slots=True)
class ThreadContext:
    """State of one application thread."""

    pid: int
    gen: Generator[tuple, Any, None]
    time: int = 0  # local clock (cycles)
    user: int = 0
    lock: int = 0
    barrier: int = 0
    mgs: int = 0
    done: bool = False
    finish_time: int = 0
    #: local time at the last yield to the scheduler (quantum bookkeeping)
    last_yield: int = 0
    #: scratch for the driver: when the current blocking op started
    block_start: int = 0

    def state(self, base: int) -> tuple:
        """Clock skew from ``base`` and quantum progress (see
        :meth:`repro.runtime.runner.Runtime.snapshot`)."""
        return (self.time - base, self.time - self.last_yield)

    def charge_user(self, cycles: int) -> None:
        self.time += cycles
        self.user += cycles

    def charge_mgs(self, cycles: int) -> None:
        self.time += cycles
        self.mgs += cycles
