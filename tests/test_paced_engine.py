"""PacedEngine: wall coupling, injection FIFO/backpressure, frame pacing."""

import threading

import pytest

from repro.core.events import PacedEngine, Simulation, SimulationError


class SteppingClock:
    """A fake monotonic clock that advances a fixed step per read.

    Every ``clock()`` call moves wall time forward, so a paced loop that
    polls the clock always converges on its target without real sleeps
    (``poll_wall_seconds=0`` turns the condition wait into a no-op).
    """

    def __init__(self, step: float = 0.01) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def paced_engine(sim, dilation, **kwargs):
    clock = SteppingClock()
    engine = PacedEngine(
        sim,
        dilation=dilation,
        poll_wall_seconds=0.0,
        clock=clock,
        sleep=lambda seconds: None,
        **kwargs,
    )
    return engine, clock


def test_freerun_advance_is_equivalent_to_run_until():
    fired_a, fired_b = [], []
    sim_a, sim_b = Simulation(), Simulation()
    for t in (1.0, 2.5, 4.0):
        sim_a.schedule(t, lambda t=t: fired_a.append(t), label="tick")
        sim_b.schedule(t, lambda t=t: fired_b.append(t), label="tick")
    sim_a.run(until=3.0)
    engine, _ = paced_engine(sim_b, dilation=0.0)
    engine.advance_to(3.0)
    assert fired_a == fired_b == [1.0, 2.5]
    assert sim_a.now == sim_b.now == 3.0
    assert sim_a.events_processed == sim_b.events_processed


def test_paced_advance_couples_sim_time_to_the_wall_clock():
    sim = Simulation()
    fired = []
    engine, clock = paced_engine(sim, dilation=2.0)
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda t=t: fired.append((t, clock.now)), label="tick")
    engine.advance_to(4.0)
    assert [t for t, _ in fired] == [1.0, 2.0, 3.0]
    assert sim.now == 4.0
    # No event may fire before the wall clock has "earned" its sim time:
    # at dilation 2.0, sim time t requires at least t/2 wall seconds.
    origin_wall = engine._origin[0]
    for sim_t, wall_t in fired:
        assert (wall_t - origin_wall) * 2.0 >= sim_t - 1e-9


def test_injections_are_fifo_and_run_at_current_sim_time():
    sim = Simulation()
    engine, _ = paced_engine(sim, dilation=0.0)
    sim.run(until=5.0)
    seen = []
    assert engine.inject(lambda: seen.append(("first", sim.now)))
    assert engine.inject(lambda: seen.append(("second", sim.now)))
    assert engine.pending_injections == 2
    engine.advance_to(6.0)
    assert seen == [("first", 5.0), ("second", 5.0)]
    assert engine.pending_injections == 0
    assert engine.injection_stats == (2, 2, 0)


def test_injection_backpressure_refuses_when_full():
    engine, _ = paced_engine(Simulation(), dilation=0.0, max_pending=2)
    assert engine.inject(lambda: None)
    assert engine.inject(lambda: None)
    assert not engine.inject(lambda: None)
    assert engine.injection_stats == (2, 0, 1)
    assert engine.drain_injections() == 2
    # Draining frees the slot again.
    assert engine.inject(lambda: None)


def test_frames_free_run_matches_the_old_watch_loop():
    def build():
        sim = Simulation()
        fired = []
        for i in range(40):
            sim.schedule(i * 0.25, lambda i=i: fired.append(i), label="tick")
        return sim, fired

    old_sim, old_fired = build()
    frames = 4
    horizon = 8.0
    checkpoints_old = []
    for frame in range(1, frames + 1):
        old_sim.run(until=horizon * frame / frames)
        checkpoints_old.append((old_sim.now, len(old_fired)))

    new_sim, new_fired = build()
    engine, _ = paced_engine(new_sim, dilation=0.0)
    checkpoints_new = [
        (now, len(new_fired)) for _, now in engine.frames(horizon, frames)
    ]
    assert checkpoints_new == checkpoints_old
    assert new_fired == old_fired
    assert new_sim.events_processed == old_sim.events_processed


def test_frames_pause_between_frames_only():
    sleeps = []
    engine = PacedEngine(
        Simulation(),
        dilation=0.0,
        frame_wall_seconds=0.5,
        sleep=sleeps.append,
    )
    list(engine.frames(3.0, 3))
    # N frames -> N-1 pauses, never one after the last frame.
    assert sleeps == [0.5, 0.5]


def test_frames_rejects_non_positive_count():
    engine, _ = paced_engine(Simulation(), dilation=0.0)
    with pytest.raises(SimulationError):
        list(engine.frames(1.0, 0))


def test_serve_requires_paced_mode():
    engine, _ = paced_engine(Simulation(), dilation=0.0)
    with pytest.raises(SimulationError):
        engine.serve(threading.Event())


def test_serve_loop_drains_cross_thread_injections():
    sim = Simulation()
    engine = PacedEngine(sim, dilation=1000.0, poll_wall_seconds=0.005)
    stop = threading.Event()
    processed = threading.Event()
    thread = threading.Thread(target=engine.serve, args=(stop,), daemon=True)
    thread.start()
    try:
        # Injected from this (non-engine) thread; the callback schedules
        # real sim work, all of which runs on the engine thread.
        engine.inject(
            lambda: sim.schedule(0.001, processed.set, label="tick")
        )
        assert processed.wait(5.0), "injected event never ran"
    finally:
        stop.set()
        thread.join(5.0)
    assert not thread.is_alive()
    injected, drained, refused = engine.injection_stats
    assert (injected, drained, refused) == (1, 1, 0)


def test_serve_stops_at_horizon():
    sim = Simulation()
    engine = PacedEngine(sim, dilation=1e6, poll_wall_seconds=0.001)
    engine.serve(threading.Event(), horizon=50.0)
    assert sim.now == 50.0


def test_watch_cli_pacing_is_byte_identical_to_the_old_loop():
    """The rebuilt watch loop keeps monitor + report byte-identical."""
    from repro.core import SimConfig, SimKernel
    from repro.observability import TimeSeriesMonitor
    from repro.workload import WorkloadGenerator, profile_by_name

    def build():
        profile = profile_by_name("IOPS")
        generator = WorkloadGenerator(seed=2)
        trace, start, end = generator.interval_trace(
            profile.mean_rate_per_second * 0.3,
            interval_hours=0.05,
            warmup_hours=0.01,
            cooldown_hours=0.01,
            size_model=profile.size_model,
            burstiness=profile.burstiness,
        )
        kernel = SimKernel(
            SimConfig(num_drives=4, num_shuttles=4, num_platters=120, seed=2)
        )
        kernel.lifecycle.assign_trace(trace, start, end)
        horizon = (0.05 + 0.02) * 3600.0
        monitor = TimeSeriesMonitor(horizon / 40.0, max_samples=64)
        monitor.attach(kernel)
        return kernel, monitor, horizon

    frames = 5
    old_kernel, old_monitor, horizon = build()
    for frame in range(1, frames + 1):
        old_kernel.run(until=horizon * frame / frames)
    old_report = old_kernel.run()

    new_kernel, new_monitor, _ = build()
    engine = PacedEngine(new_kernel.ctx.sim, frame_wall_seconds=0.0)
    for _frame, _now in engine.frames(horizon, frames):
        pass
    new_report = new_kernel.run()

    assert new_monitor.as_dict() == old_monitor.as_dict()
    assert new_report.as_dict() == old_report.as_dict()
