"""The discrete-event core used by every other subsystem.

The engine is intentionally tiny: a binary heap of ``(time, seq, fn,
args)`` entries.  ``seq`` is a monotonically increasing counter that makes
the ordering of simultaneous events deterministic (FIFO by scheduling
order), which in turn makes every experiment in the repository
reproducible bit-for-bit.

Hot-path note: :meth:`Simulator.run` micro-batches events that share a
timestamp.  All events due at the current time are drained from the heap
into a FIFO once, and events scheduled *for the current time* while the
batch executes are appended to that FIFO directly instead of taking a
round trip through the heap.  Because new events always carry a larger
``seq`` than everything already pending, FIFO append order equals
``(time, seq)`` order, so the execution order is bit-for-bit identical
to the plain heap loop — it just does far fewer ``heappush``/``heappop``
calls on the zero-delay handler chains the MGS protocol generates.
"""

from __future__ import annotations

import heapq
from collections import deque
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

    __slots__ = ("_heap", "_now", "_seq", "_events_processed", "_due", "_batching")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[..., None], tuple[Any, ...]]] = []
        self._now: int = 0
        self._seq: int = 0
        self._events_processed: int = 0
        #: events due at exactly ``_now``, in seq order (only while running)
        self._due: deque[tuple[int, int, Callable[..., None], tuple[Any, ...]]] = (
            deque()
        )
        self._batching: bool = False

    @property
    def now(self) -> int:
        """Current simulated time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._heap) + len(self._due)

    def pending_events(self) -> list[tuple[int, Callable[..., None], tuple[Any, ...]]]:
        """Queued events as ``(time, fn, args)``, in delivery order."""
        return [
            (time, fn, args)
            for time, _seq, fn, args in sorted([*self._heap, *self._due])
        ]

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute ``time`` cycles."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        if self._batching and time == self._now:
            # The current-time batch already drained every heap entry at
            # ``time``; a fresh event has a larger seq than all of them,
            # so FIFO append preserves (time, seq) order exactly.
            self._due.append((time, self._seq, fn, args))
        else:
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
        due = self._due
        heappop = heapq.heappop
        processed = 0
        self._batching = True
        try:
            while heap or due:
                if not due:
                    time = heap[0][0]
                    if until is not None and time > until:
                        self._now = until
                        return
                    self._now = time
                    while heap and heap[0][0] == time:
                        due.append(heappop(heap))
                if max_events is not None and processed >= max_events:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                _time, _seq, fn, args = due.popleft()
                fn(*args)
                self._events_processed += 1
                processed += 1
        finally:
            self._batching = False
            # On an exception (max_events, a handler raising) the batch may
            # hold undrained events; push them back so ``pending``/``step``
            # keep seeing a consistent queue.
            while due:
                heapq.heappush(heap, due.popleft())

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
        if self._heap or self._due:
            raise RuntimeError(
                f"reset_quiescent with {self.pending} events pending"
            )
        self._now = now

    def replay_advance(self, now: int, events: int) -> None:
        """Apply a replayed phase's clock and event-count effect.

        Used by the phase-replay engine (``repro.runtime.replay``) when a
        recorded phase is applied in closed form: the events it would
        have processed are accounted without executing them.  Only legal
        at a quiescent point.
        """
        if self._heap or self._due:
            raise RuntimeError(
                f"replay_advance with {self.pending} events pending"
            )
        if events < 0:
            raise ValueError(f"negative replayed event count {events}")
        self._now = now
        self._events_processed += events

    def step(self) -> bool:
        """Process a single event.  Returns False if the queue was empty."""
        if not self._heap:
            return False
        time, _seq, fn, args = heapq.heappop(self._heap)
        self._now = time
        fn(*args)
        self._events_processed += 1
        return True
