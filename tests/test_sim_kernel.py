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
        ev = sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert ev.pending and sim.next_event_time() == 10.0

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
        assert sim.next_event_time() == 2.0  # the cancelled head is drained


class TestDrivenStep:
    """``step(done, deadline)``: the adapter's "run until the outcome
    resolves or the deadline passes" loop in one call."""

    @staticmethod
    def script(sim, log):
        for t in (0.5, 1.0, 1.0, 2.5, 4.0):
            sim.schedule_at(t, log.append, t)
        sim.schedule_at(1.0, log.append, "cancelled").cancel()

    @staticmethod
    def stepped(sim, done, deadline):
        # The loop the driven step stands for, one step() per event.
        while not done() and sim.now < deadline:
            if not sim.step():
                return False
        return True

    @pytest.mark.parametrize("deadline, stop_after", [
        (2.0, None), (0.7, None), (10.0, None), (10.0, 2), (0.0, None),
        (math.inf, 1)])
    def test_equals_the_step_loop(self, deadline, stop_after):
        runs = []
        for driven in (True, False):
            sim, log = Simulator(), []
            self.script(sim, log)

            def done():
                return stop_after is not None and len(log) >= stop_after

            ran = (sim.step(done, deadline) if driven
                   else self.stepped(sim, done, deadline))
            runs.append((ran, log, sim.now, sim.events_executed,
                         sim.next_event_time()))
        assert runs[0] == runs[1]

    def test_last_event_may_land_past_the_deadline(self):
        sim, log = Simulator(), []
        self.script(sim, log)
        assert sim.step(lambda: False, 2.0)
        # The clock is checked before each step: 2.5 still runs.
        assert log == [0.5, 1.0, 1.0, 2.5]
        assert sim.now == 2.5

    def test_returns_false_when_the_queue_runs_dry(self):
        sim, log = Simulator(), []
        self.script(sim, log)
        assert not sim.step(lambda: False, math.inf)
        assert log == [0.5, 1.0, 1.0, 2.5, 4.0]
        assert sim.events_executed == 5

    def test_done_before_any_event_runs_none(self):
        sim, log = Simulator(), []
        self.script(sim, log)
        assert sim.step(lambda: True, math.inf)
        assert log == [] and sim.events_executed == 0


class TestClockAndOrder:
    def test_schedule_and_schedule_at_share_one_sequence(self):
        # Same-time events run in the order they were scheduled, whichever
        # call scheduled them: the heap key is (time, seq).
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, "at-0")
        sim.schedule(1.0, order.append, "in-1")
        sim.schedule_at(1.0, order.append, "at-2")
        sim.run(until=0.5)
        sim.schedule(0.5, order.append, "in-3")
        sim.schedule_at(1.0, order.append, "at-4")
        sim.run()
        assert order == ["at-0", "in-1", "at-2", "in-3", "at-4"]

    def test_cancelled_heads_are_skipped_by_run_and_step(self):
        for mode in ("run", "step", "driven"):
            sim = Simulator()
            fired = []
            for t in (1.0, 1.0, 2.0):
                sim.schedule_at(t, fired.append, t).cancel()
            sim.schedule_at(3.0, fired.append, 3.0)
            if mode == "run":
                sim.run()
            elif mode == "step":
                assert sim.step()
            else:
                assert sim.step(lambda: bool(fired), math.inf)
            assert fired == [3.0] and sim.now == 3.0
            assert sim.events_executed == 1

    def test_now_is_a_plain_attribute(self):
        sim = Simulator()
        assert "now" in vars(sim)
        sim.schedule(2.0, lambda: None)
        sim.step()
        assert vars(sim)["now"] == sim.now == 2.0

    def test_skip_to_moves_the_clock_over_idle_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.skip_to(3.0)
        assert sim.now == 3.0
        sim.skip_to(1.0)  # never backwards
        assert sim.now == 3.0
        # A cancelled head does not count as due.
        sim.schedule(0.5, seen.append, "cancelled").cancel()
        sim.skip_to(4.0)
        assert sim.now == 4.0
        with pytest.raises(SimulationError):
            sim.skip_to(6.0)
        assert sim.now == 4.0
        sim.schedule(0.0, seen.append, "now")
        sim.run()
        assert seen == ["now", 5.0]


class TestPeriodicTimer:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

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

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)
