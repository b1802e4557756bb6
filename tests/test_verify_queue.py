"""Tests for the in-simulation verification queue (Section 3.1)."""

import pytest

from repro.core.sim import SimConfig, SimKernel
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
    kernel = SimKernel(SimConfig(num_platters=300, seed=seed, **kwargs))
    kernel.lifecycle.assign_trace(trace, start, end)
    return kernel


class TestFluidQueue:
    def test_idle_fleet_drains_at_aggregate_rate(self):
        """With no customer reads, 20 drives at 60 MB/s verify a 2 TB
        platter in 2e12 / 1.2e9 ~ 1667 s."""
        kernel = SimKernel(SimConfig(num_platters=50, seed=1))
        kernel.verification.submit_verification(2e12)
        kernel.ctx.sim.schedule(5000.0, lambda: None)  # advance the clock
        kernel.run()
        latencies = kernel.verification.verify_latencies
        assert len(latencies) == 1
        assert latencies[0] == pytest.approx(2e12 / (20 * 60e6), rel=0.01)

    def test_fifo_completion_order(self):
        kernel = SimKernel(SimConfig(num_platters=50, seed=2))
        kernel.verification.submit_verification(1e11)
        kernel.verification.submit_verification(1e11)
        kernel.ctx.sim.schedule(1000.0, lambda: None)
        kernel.run()
        latencies = kernel.verification.verify_latencies
        assert len(latencies) == 2
        assert latencies[0] < latencies[1]

    def test_backlog_reports_pending_bytes(self):
        kernel = SimKernel(SimConfig(num_platters=50, seed=3))
        kernel.verification.submit_verification(5e12)
        kernel.ctx.sim.schedule(100.0, lambda: None)
        kernel.run()
        drained = 100.0 * 20 * 60e6
        assert kernel.verification.backlog_bytes == pytest.approx(5e12 - drained, rel=0.01)

    def test_customer_reads_slow_verification(self):
        """Drives busy with customer platters stop draining the queue —
        the preemption the paper's fast switching manages."""
        busy = _sim_with_reads(rate=2.0, seed=61)
        busy.verification.submit_verification(3e12)
        busy.run()
        idle = SimKernel(SimConfig(num_platters=300, seed=61))
        idle.verification.submit_verification(3e12)
        idle.ctx.sim.schedule(busy.ctx.sim.now, lambda: None)
        idle.run()
        busy_latencies = busy.verification.verify_latencies
        idle_latencies = idle.verification.verify_latencies
        assert len(busy_latencies) == 1
        assert len(idle_latencies) == 1
        assert busy_latencies[0] > idle_latencies[0]

    def test_deferred_submission(self):
        kernel = SimKernel(SimConfig(num_platters=50, seed=4))
        kernel.verification.submit_verification(1e11, time=500.0)
        kernel.ctx.sim.schedule(2000.0, lambda: None)
        kernel.run()
        latencies = kernel.verification.verify_latencies
        assert len(latencies) == 1
        # Latency counts from the (deferred) arrival, not from t=0.
        assert latencies[0] < 500.0

    def test_verification_keeps_up_with_write_rate(self):
        """Section 3.1 end to end: a realistic stream of freshly written
        platters clears with low latency while reads are served."""
        kernel = _sim_with_reads(rate=1.0, seed=62)
        # One 2 TB platter written every 10 minutes (aggressive ingest).
        for i in range(3):
            kernel.verification.submit_verification(2e12, time=i * 600.0)
        kernel.ctx.sim.schedule(3 * 3600.0, lambda: None)  # keep the clock running
        report = kernel.run()
        assert report.requests_completed == report.requests_submitted
        latencies = kernel.verification.verify_latencies
        assert len(latencies) >= 2  # most complete within the run
        assert min(latencies) < 1.5 * 3600
