"""Tests for the in-simulation verification queue (Section 3.1)."""

import pytest

from repro.core.sim import LibrarySimulation, SimConfig
from repro.workload.generator import WorkloadGenerator


def _sim_with_reads(rate=0.5, seed=60, **kwargs):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.interval_trace(
        rate,
        interval_hours=0.4,
        warmup_hours=0.05,
        cooldown_hours=0.05,
        fixed_size=20_000_000,
    )
    sim = LibrarySimulation(SimConfig(num_platters=300, seed=seed, **kwargs))
    sim.assign_trace(trace, start, end)
    return sim


class TestFluidQueue:
    def test_idle_fleet_drains_at_aggregate_rate(self):
        """With no customer reads, 20 drives at 60 MB/s verify a 2 TB
        platter in 2e12 / 1.2e9 ~ 1667 s."""
        sim = LibrarySimulation(SimConfig(num_platters=50, seed=1))
        sim.submit_verification(2e12)
        sim.sim.schedule(5000.0, lambda: None)  # advance the clock
        sim.run()
        assert len(sim.verify_latencies) == 1
        assert sim.verify_latencies[0] == pytest.approx(2e12 / (20 * 60e6), rel=0.01)

    def test_fifo_completion_order(self):
        sim = LibrarySimulation(SimConfig(num_platters=50, seed=2))
        sim.submit_verification(1e11)
        sim.submit_verification(1e11)
        sim.sim.schedule(1000.0, lambda: None)
        sim.run()
        assert len(sim.verify_latencies) == 2
        assert sim.verify_latencies[0] < sim.verify_latencies[1]

    def test_backlog_reports_pending_bytes(self):
        sim = LibrarySimulation(SimConfig(num_platters=50, seed=3))
        sim.submit_verification(5e12)
        sim.sim.schedule(100.0, lambda: None)
        sim.run()
        drained = 100.0 * 20 * 60e6
        assert sim.verify_backlog_bytes == pytest.approx(5e12 - drained, rel=0.01)

    def test_customer_reads_slow_verification(self):
        """Drives busy with customer platters stop draining the queue —
        the preemption the paper's fast switching manages."""
        busy = _sim_with_reads(rate=2.0, seed=61)
        busy.submit_verification(3e12)
        busy.run()
        idle = LibrarySimulation(SimConfig(num_platters=300, seed=61))
        idle.submit_verification(3e12)
        idle.sim.schedule(busy.sim.now, lambda: None)
        idle.run()
        assert len(busy.verify_latencies) == 1
        assert len(idle.verify_latencies) == 1
        assert busy.verify_latencies[0] > idle.verify_latencies[0]

    def test_deferred_submission(self):
        sim = LibrarySimulation(SimConfig(num_platters=50, seed=4))
        sim.submit_verification(1e11, time=500.0)
        sim.sim.schedule(2000.0, lambda: None)
        sim.run()
        assert len(sim.verify_latencies) == 1
        # Latency counts from the (deferred) arrival, not from t=0.
        assert sim.verify_latencies[0] < 500.0

    def test_verification_keeps_up_with_write_rate(self):
        """Section 3.1 end to end: a realistic stream of freshly written
        platters clears with low latency while reads are served."""
        sim = _sim_with_reads(rate=1.0, seed=62)
        # One 2 TB platter written every 10 minutes (aggressive ingest).
        for i in range(3):
            sim.submit_verification(2e12, time=i * 600.0)
        sim.sim.schedule(3 * 3600.0, lambda: None)  # keep the clock running
        report = sim.run()
        assert report.requests_completed == report.requests_submitted
        assert len(sim.verify_latencies) >= 2  # most complete within the run
        assert min(sim.verify_latencies) < 1.5 * 3600
