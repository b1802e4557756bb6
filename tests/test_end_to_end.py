"""Tests for library + decode end-to-end latency composition."""

import pytest

from repro.core.end_to_end import compose_with_decode
from repro.core.metrics import SLO_SECONDS
from repro.core.sim import SimConfig, SimKernel
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def finished_simulation():
    generator = WorkloadGenerator(seed=80)
    trace, start, end = generator.interval_trace(
        0.8,
        interval_hours=0.5,
        warmup_hours=0.1,
        cooldown_hours=0.1,
        fixed_size=20_000_000,
    )
    kernel = SimKernel(SimConfig(num_platters=400, seed=80))
    kernel.lifecycle.assign_trace(trace, start, end)
    kernel.run()
    return kernel


class TestComposition:
    def test_end_to_end_never_faster_than_library(self, finished_simulation):
        report = compose_with_decode(finished_simulation)
        assert report.end_to_end.tail >= report.library_completions.tail
        assert report.end_to_end.median >= report.library_completions.median

    def test_end_to_end_stays_within_slo(self, finished_simulation):
        """The disaggregated decode must not blow the 15 h SLO: reads that
        finish late get tight decode budgets (high priority)."""
        report = compose_with_decode(finished_simulation)
        assert report.end_to_end.within_slo()
        assert report.decode_slo_violations == 0

    def test_deferral_trades_latency_for_cost(self, finished_simulation):
        """Time-shifting decode to cheap hours (the Section 3.2 design)
        costs latency — still within SLO — and saves money versus
        decode-on-arrival."""
        deferred = compose_with_decode(finished_simulation, defer=True)
        immediate = compose_with_decode(finished_simulation, defer=False)
        assert immediate.end_to_end.tail <= deferred.end_to_end.tail
        assert deferred.decode_cost <= immediate.decode_cost
        # Decode-on-arrival adds at most the one-hour scheduling quantum.
        assert immediate.decode_overhead_at_tail <= 2 * 3600.0

    def test_decode_cost_positive(self, finished_simulation):
        report = compose_with_decode(finished_simulation)
        assert report.decode_cost > 0

    def test_empty_simulation_rejected(self):
        kernel = SimKernel(SimConfig(num_platters=50, seed=81))
        from repro.workload.traces import ReadTrace

        kernel.lifecycle.assign_trace(ReadTrace([]), 0.0, 1.0)
        kernel.run()
        with pytest.raises(ValueError):
            compose_with_decode(kernel)

    def test_bigger_files_cost_more_decode(self, finished_simulation):
        cheap = compose_with_decode(finished_simulation, sectors_per_track=50.0)
        expensive = compose_with_decode(finished_simulation, sectors_per_track=400.0)
        assert expensive.decode_cost > cheap.decode_cost
