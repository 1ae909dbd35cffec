"""Tests for the discrete-event kernel."""

import math

import pytest

from repro.sim import Event, PeriodicTimer, SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run_executes_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.run()
        assert fired == ["a"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_simultaneous_events_run_fifo(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_heap_orders_by_time_then_schedule_order(self):
        # The heap keys are (time, seq) tuples: events themselves are
        # never compared, so they define no ordering at all.
        sim = Simulator()
        order = []
        times = [3.0, 1.0, 2.0, 1.0, 3.0, 0.5, 2.0, 1.0]
        for i, t in enumerate(times):
            sim.schedule(t, order.append, i)
        sim.schedule(1.0, order.append, "cancelled").cancel()
        assert sim.next_event_time() == 0.5
        sim.run()
        assert order == sorted(range(len(times)), key=lambda i: (times[i], i))
        with pytest.raises(TypeError):
            sim.schedule(1.0, order.append) < sim.schedule(2.0, order.append)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_event_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, True)
        sim.run()
        assert fired == [True]

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.pending_count == 1

    def test_run_until_includes_events_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(4.0, fired.append, True)
        sim.run(until=4.0)
        assert fired == [True]

    def test_run_until_advances_clock_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, True)
        sim.run(until=5.0)
        assert fired == []
        sim.run()
        assert fired == [True]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        count = []
        for _ in range(10):
            sim.schedule(1.0, count.append, 1)
        sim.run(max_events=3)
        assert len(count) == 3

    def test_step_executes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step()
        assert fired == [1]

    def test_step_empty_queue_returns_false(self):
        assert not Simulator().step()

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_reset_clears_state(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(2.0, lambda: None)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_count == 0

    def test_nested_run_advances_clock(self):
        sim = Simulator()
        seen = []

        def callback():
            # Protocol code advancing the clock from within an event.
            sim.run(until=sim.now + 0.5)
            seen.append(sim.now)

        sim.schedule(1.0, callback)
        sim.run(until=10.0)
        assert seen == [1.5]
        assert sim.now == 10.0

    def test_nested_run_executes_due_events(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.2, order.append, "inner")
            sim.run(until=sim.now + 0.5)
            order.append("after-nested")

        sim.schedule(1.0, outer)
        sim.schedule(2.0, order.append, "later")
        sim.run()
        assert order == ["outer", "inner", "after-nested", "later"]

    def test_clock_never_goes_backwards_after_nested_run(self):
        sim = Simulator()
        times = []

        def first():
            sim.run(until=sim.now + 1.0)  # jumps past the second event

        sim.schedule(1.0, first)
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run(until=1.2)
        assert sim.now == 2.0  # nested run moved beyond the outer bound
        assert times == [1.5]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, True)
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_pending_property(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        assert ev.pending
        ev.cancel()
        assert not ev.pending

    def test_cancelled_events_not_counted_pending(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.pending_count == 1


class TestPeriodicTimer:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_delay_zero_fires_immediately(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 2.0, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.run(until=2.5)
        assert ticks == [0.0, 2.0]

    def test_stop_halts_ticks(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=1.5)
        timer.stop()
        sim.run(until=5.0)
        assert ticks == [1.0]
        assert not timer.active

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: (ticks.append(1), timer.stop()))
        sim.run(until=5.0)
        assert len(ticks) == 1

    def test_jitter_applied(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now),
                      jitter_fn=lambda: 0.25)
        sim.run(until=3.0)
        assert ticks == [1.25, 2.5]

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)
