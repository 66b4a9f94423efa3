"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_simultaneous_events_fifo_by_schedule_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(5, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_schedule_from_within_event():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(7, second)

    def second():
        seen.append(sim.now)

    sim.schedule(3, first)
    sim.run()
    assert seen == [3, 10]


def test_cannot_schedule_into_past():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.schedule(100, fired.append, 2)
    sim.run(until=50)
    assert fired == [1]
    assert sim.now == 50
    assert sim.pending == 1
    sim.run()
    assert fired == [1, 2]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(1, loop)

    sim.schedule(0, loop)
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


def test_max_events_allows_exactly_that_many():
    # Regression: the guard used to trip only after executing event
    # max_events + 1; a run of exactly max_events events must succeed.
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(i, fired.append, i)
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_stops_before_executing_the_excess_event():
    sim = Simulator()
    fired = []
    for i in range(6):
        sim.schedule(i, fired.append, i)
    with pytest.raises(RuntimeError):
        sim.run(max_events=5)
    # The sixth event was never executed and is still queued.
    assert fired == [0, 1, 2, 3, 4]
    assert sim.pending == 1
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_same_time_events_scheduled_mid_batch_keep_fifo_order():
    # An event scheduled for the *current* time from inside an event runs
    # after every event already queued for that time: plain (time, seq)
    # heap order, i.e. schedule order.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, order.append, "chained")

    sim.schedule(5, first)
    sim.schedule(5, order.append, "second")
    sim.run()
    assert order == ["first", "second", "chained"]
    assert sim.now == 5


def test_pending_counts_current_batch_after_guard_trips():
    sim = Simulator()

    def loop():
        sim.schedule(0, loop)

    sim.schedule(0, loop)
    with pytest.raises(RuntimeError):
        sim.run(max_events=10)
    # The guard trips before popping the next event, so the chained
    # same-time event stays in the heap, counted and runnable.
    assert sim.pending == 1
    assert sim.step() is True


def test_raising_handler_keeps_count_and_queue_consistent():
    # run() adds its executed events to events_processed on the way out,
    # raise or not; the raising event is not counted, and the events
    # behind it stay queued.
    sim = Simulator()
    fired = []

    def boom():
        raise ValueError("handler failed")

    sim.schedule(1, fired.append, 1)
    sim.schedule(2, fired.append, 2)
    sim.schedule(3, boom)
    sim.schedule(4, fired.append, 4)
    sim.schedule(5, fired.append, 5)
    with pytest.raises(ValueError):
        sim.run()
    assert fired == [1, 2]
    assert sim.events_processed == 2
    assert sim.pending == 2
    assert sim.now == 3
    sim.run()
    assert fired == [1, 2, 4, 5]
    assert sim.events_processed == 4


def test_step_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(4, fired.append, "x")
    assert sim.step() is True
    assert fired == ["x"]
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5
