"""Tests for the discrete event simulation engine."""

import pytest

from repro.core.events import (
    Process,
    Resource,
    Simulation,
    SimulationError,
    drain,
)


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulation().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        drain(sim)
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        sim = Simulation()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        drain(sim)
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        drain(sim)
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        # Nothing was queued: the clock still only moves forward.
        drain(sim)
        assert sim.now == 1.0
        assert sim.events_processed == 1

    def test_nan_absolute_time_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.peek() is None

    def test_schedule_at_absolute_time(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        drain(sim)
        assert seen == [7.0]

    def test_nested_scheduling(self):
        sim = Simulation()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        drain(sim)
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_events_processed_counter(self):
        sim = Simulation()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        drain(sim)
        assert sim.events_processed == 4

    def test_loop_throughput_tracked_by_run(self):
        sim = Simulation()
        assert sim.events_per_second == 0.0  # nothing has run yet
        for i in range(100):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
        assert sim.run_wall_seconds > 0.0
        assert sim.events_per_second == pytest.approx(
            sim.events_processed / sim.run_wall_seconds
        )

    def test_bare_step_counts_events_but_no_wall_time(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.step()
        assert sim.events_processed == 1
        assert sim.run_wall_seconds == 0.0
        assert sim.events_per_second == 0.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        drain(sim)
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        drain(sim)

    def test_peek_skips_cancelled(self):
        sim = Simulation()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0


class TestRun:
    def test_run_until_stops_at_boundary(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0  # clock advanced to the boundary

    def test_run_until_then_resume(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_max_events_bound(self):
        sim = Simulation()
        count = [0]

        def reschedule():
            count[0] += 1
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        sim.run(max_events=50)
        assert count[0] == 50

    def test_reentrant_run_rejected(self):
        sim = Simulation()

        def bad():
            sim.run()

        sim.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_drain_limit_detects_runaway(self):
        sim = Simulation()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            drain(sim, limit=100)


class TestProcess:
    def test_process_runs_steps_sequentially(self):
        sim = Simulation()
        times = []

        def activity():
            times.append(sim.now)
            yield 2.0
            times.append(sim.now)
            yield 3.0
            times.append(sim.now)

        Process(sim, activity())
        drain(sim)
        assert times == [0.0, 2.0, 5.0]

    def test_process_yielding_nan_rejected(self):
        sim = Simulation()
        steps = []

        def body():
            steps.append(sim.now)
            yield float("nan")
            steps.append(sim.now)

        Process(sim, body())
        with pytest.raises(SimulationError):
            sim.run()
        assert steps == [0.0]
        assert sim.peek() is None

    def test_on_done_fires_at_completion_time(self):
        sim = Simulation()
        done_at = []

        def activity():
            yield 4.0

        Process(sim, activity()).on_done(lambda: done_at.append(sim.now))
        drain(sim)
        assert done_at == [4.0]

    def test_on_done_after_completion_still_fires(self):
        sim = Simulation()

        def activity():
            yield 1.0

        process = Process(sim, activity())
        drain(sim)
        assert process.done
        late = []
        process.on_done(lambda: late.append(True))
        drain(sim)
        assert late == [True]

    def test_cancel_stops_process(self):
        sim = Simulation()
        steps = []

        def activity():
            steps.append(1)
            yield 1.0
            steps.append(2)
            yield 1.0

        process = Process(sim, activity())
        sim.step()  # run the kick-off (first segment)
        process.cancel()
        drain(sim)
        assert steps == [1]
        assert process.done


class TestResource:
    def test_grants_up_to_capacity(self):
        sim = Simulation()
        resource = Resource(sim, capacity=2)
        granted = []
        for i in range(3):
            resource.acquire(lambda i=i: granted.append(i))
        drain(sim)
        assert granted == [0, 1]
        assert resource.queue_length == 1

    def test_release_hands_to_waiter(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)
        granted = []
        resource.acquire(lambda: granted.append("a"))
        resource.acquire(lambda: granted.append("b"))
        drain(sim)
        resource.release()
        drain(sim)
        assert granted == ["a", "b"]

    def test_release_without_acquire_raises(self):
        sim = Simulation()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulation(), capacity=0)

    def test_available_accounting(self):
        sim = Simulation()
        resource = Resource(sim, capacity=3)
        resource.acquire(lambda: None)
        drain(sim)
        assert resource.in_use == 1
        assert resource.available == 2
