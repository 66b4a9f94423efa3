"""The discrete-event core used by every other subsystem.

The engine is intentionally tiny: a binary heap of ``(time, seq, fn,
args)`` entries.  ``seq`` is a monotonically increasing counter that makes
the ordering of simultaneous events deterministic (FIFO by scheduling
order), which in turn makes every experiment in the repository
reproducible bit-for-bit.

Hot-path note: :meth:`Simulator.run` is one plain heap loop, and ``now``
and ``events_processed`` are plain slot attributes (``now`` is read on
nearly every protocol step).  ``run`` counts the events it executes in a
local and adds them to ``events_processed`` once, when it returns or
raises.  ``Machine.send`` pushes fixed-delay messages onto ``_heap``
itself, making exactly the ``(time, seq, fn, args)`` entry
:meth:`Simulator.schedule_at` would, with the same ``seq`` increment.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable

__all__ = ["Simulator"]


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.schedule(10, fired.append, "a")
        >>> sim.schedule(5, fired.append, "b")
        >>> sim.run()
        >>> fired
        ['b', 'a']
        >>> sim.now
        10
    """

    __slots__ = ("_heap", "now", "_seq", "events_processed")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[..., None], tuple[Any, ...]]] = []
        #: current simulated time in cycles
        self.now: int = 0
        self._seq: int = 0
        #: total number of events executed so far (updated when ``run``
        #: returns or raises, and by ``step``)
        self.events_processed: int = 0

    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._heap)

    def pending_events(self) -> list[tuple[int, Callable[..., None], tuple[Any, ...]]]:
        """Queued events as ``(time, fn, args)``, in delivery order."""
        return [(time, fn, args) for time, _seq, fn, args in sorted(self._heap)]

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute ``time`` cycles."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains.

        Args:
            until: stop (without executing) events at time > ``until``.
            max_events: safety valve against runaway simulations; raises
                ``RuntimeError`` *before* executing event ``max_events + 1``,
                so at most ``max_events`` events run.
        """
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        limit = sys.maxsize if max_events is None else max_events
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                if processed >= limit:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                time, _seq, fn, args = heappop(heap)
                self.now = time
                fn(*args)
                processed += 1
        finally:
            self.events_processed += processed

    def reset_quiescent(self, now: int) -> None:
        """Move the clock while the event queue is empty.

        Phase boundaries (``Runtime.spawn_phases``) are quiescent points:
        every thread has finished its phase generator and the heap has
        drained, but the per-thread clocks differ by the final barrier's
        departure skew.  The next phase resumes each thread at its own
        clock, which may lie *before* the last processed event, so the
        driver rewinds the simulator to the earliest thread clock first.

        The rewind does reorder execution relative to one continuous
        run.  The drain before the boundary already processed events
        stamped after some threads' clocks, and those threads resume only
        now, behind them.  A :meth:`~repro.runtime.runner.Runtime.spawn_all`
        program with a barrier per phase would interleave them instead:
        Jacobi at P=32 gives 2,149,884 cycles phased (fig6 C=1) against
        2,186,946 as one worker, and the "fixed 10%" row of
        ``results/ablation_network.txt`` gives 653,840 against 664,083.
        """
        if self._heap:
            raise RuntimeError(
                f"reset_quiescent with {self.pending} events pending"
            )
        self.now = now

    def replay_advance(self, now: int, events: int) -> None:
        """Apply a replayed phase's clock and event-count effect.

        Used by the phase-replay engine (``repro.runtime.replay``) when a
        recorded phase is applied in closed form: the events it would
        have processed are accounted without executing them.  Only legal
        at a quiescent point.
        """
        if self._heap:
            raise RuntimeError(
                f"replay_advance with {self.pending} events pending"
            )
        if events < 0:
            raise ValueError(f"negative replayed event count {events}")
        self.now = now
        self.events_processed += events

    def step(self) -> bool:
        """Process a single event.  Returns False if the queue was empty."""
        if not self._heap:
            return False
        time, _seq, fn, args = heapq.heappop(self._heap)
        self.now = time
        fn(*args)
        self.events_processed += 1
        return True
