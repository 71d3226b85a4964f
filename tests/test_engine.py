"""Unit tests for the discrete event engine."""

import pytest

from repro.core.engine import Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30, seen.append, "c")
    sim.schedule(10, seen.append, "a")
    sim.schedule(20, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    seen = []
    for tag in range(5):
        sim.schedule(100, seen.append, tag)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_times():
    sim = Simulator()
    stamps = []
    sim.schedule(7, lambda: stamps.append(sim.now))
    sim.schedule(19, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == [7, 19]


def test_run_until_horizon_is_inclusive():
    sim = Simulator()
    seen = []
    sim.schedule(10, seen.append, "early")
    sim.schedule(20, seen.append, "edge")
    sim.schedule(21, seen.append, "late")
    sim.run(until_ps=20)
    assert seen == ["early", "edge"]
    assert sim.now == 20


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until_ps=12345)
    assert sim.now == 12345


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(5, seen.append, "second")

    sim.schedule(1, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 6


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    event = sim.schedule(10, seen.append, "no")
    sim.schedule(20, seen.append, "yes")
    Simulator.cancel(event)
    sim.run()
    assert seen == ["yes"]


def test_is_pending_reflects_cancellation():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    assert Simulator.is_pending(event)
    Simulator.cancel(event)
    assert not Simulator.is_pending(event)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(50, lambda: None)


def test_new_id_unique_and_monotonic():
    sim = Simulator()
    ids = [sim.new_id() for _ in range(100)]
    assert len(set(ids)) == 100
    assert ids == sorted(ids)


def test_cancelled_events_are_not_processed():
    sim = Simulator()
    keep = sim.schedule(10, lambda: None)
    drop = sim.schedule(20, lambda: None)
    Simulator.cancel(drop)
    assert Simulator.is_pending(keep)
    assert sim.run() == 1
    assert sim.events_processed == 1


def test_events_processed_accumulates():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run()
    assert sim.events_processed == 2
