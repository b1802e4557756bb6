"""Tests for the full-system library simulation."""

import numpy as np
import pytest

from repro.core.metrics import SLO_SECONDS, CompletionStats, DriveUtilization
from repro.core.requests import SimRequest
from repro.core.sim import SimConfig, SimKernel
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import ReadRequest, ReadTrace


def _trace(rate=0.5, hours=0.5, seed=1, fixed_size=4_000_000):
    generator = WorkloadGenerator(seed=seed)
    return generator.interval_trace(
        rate,
        interval_hours=hours,
        warmup_hours=0.1,
        cooldown_hours=0.1,
        fixed_size=fixed_size,
    )


def _run(config, trace_args=None, skew=None):
    trace, start, end = _trace(**(trace_args or {}))
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end, skew=skew)
    report = kernel.run()
    return kernel, report


class TestConfigValidation:
    def test_policy_names(self):
        with pytest.raises(ValueError):
            SimConfig(policy="teleport")

    def test_shuttle_cap(self):
        with pytest.raises(ValueError):
            SimConfig(num_shuttles=41)

    def test_unavailability_range(self):
        with pytest.raises(ValueError):
            SimConfig(unavailable_fraction=1.0)

    @pytest.mark.parametrize("policy", ["silica", "sp", "ns"])
    @pytest.mark.parametrize("field", ["num_drives", "num_platters"])
    def test_zero_drives_or_platters_rejected(self, policy, field):
        with pytest.raises(ValueError, match=field):
            SimConfig(policy=policy, **{field: 0})

    @pytest.mark.parametrize("policy", ["silica", "sp"])
    def test_zero_shuttles_rejected_when_shuttles_move_platters(self, policy):
        with pytest.raises(ValueError, match="num_shuttles"):
            SimConfig(policy=policy, num_shuttles=0)

    def test_ns_runs_without_shuttles(self):
        # The NS baseline teleports platters, so it needs no shuttle.
        kernel, report = _run(
            SimConfig(policy="ns", num_shuttles=0, num_platters=500, seed=2)
        )
        assert report.requests_submitted > 0
        assert report.requests_completed == report.requests_submitted

    @pytest.mark.parametrize(
        "field", ["track_payload_bytes", "shard_tracks_limit"]
    )
    def test_zero_track_sizes_rejected(self, field):
        # Both are divisors in request intake (ZeroDivisionError mid-run).
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: 0})

    def test_zero_battery_capacity_rejected(self):
        with pytest.raises(ValueError, match="battery_capacity_joules"):
            SimConfig(battery_capacity_joules=0)

    def test_battery_threshold_above_full_rejected(self):
        # 1.5 kept every shuttle recharging: no request ever completed.
        with pytest.raises(ValueError, match="battery_low_threshold"):
            SimConfig(battery_low_threshold=1.5)

    def test_negative_deep_decode_factor_rejected(self):
        # A negative extra scan became a negative event delay mid-run.
        with pytest.raises(ValueError, match="deep_decode_factor"):
            SimConfig(deep_decode_factor=-3)

    def test_backoff_cap_below_base_rejected(self):
        # min(base * 2**k, cap) went negative at the first metadata outage.
        with pytest.raises(ValueError, match="metadata_backoff_cap_seconds"):
            SimConfig(metadata_backoff_cap_seconds=-5.0)
        with pytest.raises(ValueError, match="metadata_backoff_cap_seconds"):
            SimConfig(metadata_backoff_base_seconds=10.0, metadata_backoff_cap_seconds=5.0)

    def test_track_read_bytes_includes_overhead(self):
        config = SimConfig(track_payload_bytes=20e6, nc_read_overhead=0.1)
        assert config.track_read_bytes == pytest.approx(22e6)


class TestCompletion:
    @pytest.mark.parametrize("policy", ["silica", "sp", "ns"])
    def test_all_requests_complete(self, policy):
        kernel, report = _run(SimConfig(policy=policy, num_platters=500, seed=2))
        assert report.requests_completed == report.requests_submitted
        assert report.completions.count > 0

    def test_completion_time_positive(self):
        kernel, report = _run(SimConfig(num_platters=500, seed=3))
        assert report.completions.median > 0
        assert report.completions.tail >= report.completions.median

    def test_light_load_meets_slo(self):
        kernel, report = _run(SimConfig(num_platters=500, seed=4))
        assert report.completions.within_slo()

    def test_deterministic_given_seed(self):
        _, a = _run(SimConfig(num_platters=300, seed=5))
        _, b = _run(SimConfig(num_platters=300, seed=5))
        assert a.completions.tail == b.completions.tail
        assert a.bytes_read == b.bytes_read

    def test_different_seeds_differ(self):
        _, a = _run(SimConfig(num_platters=300, seed=6))
        _, b = _run(SimConfig(num_platters=300, seed=7))
        assert a.completions.tail != b.completions.tail


class TestBaselinesOrdering:
    def test_ns_is_a_lower_bound(self):
        """NS has no shuttle overhead: it must beat Silica, which must not
        be beaten by SP congestion-wise at matched provisioning."""
        trace_args = {"rate": 1.0, "hours": 0.5, "seed": 8}
        _, ns = _run(SimConfig(policy="ns", num_platters=500, seed=8), trace_args)
        _, silica = _run(SimConfig(policy="silica", num_platters=500, seed=8), trace_args)
        assert ns.completions.median <= silica.completions.median

    def test_silica_congestion_low(self):
        _, report = _run(SimConfig(policy="silica", num_platters=500, seed=9))
        assert report.shuttles.congestion_overhead < 0.10  # Figure 7a

    def test_sp_congestion_higher_than_silica(self):
        trace_args = {"rate": 1.5, "hours": 0.5, "seed": 10}
        _, silica = _run(SimConfig(policy="silica", num_platters=500, seed=10), trace_args)
        _, sp = _run(SimConfig(policy="sp", num_platters=500, seed=10), trace_args)
        assert sp.shuttles.congestion_overhead > silica.shuttles.congestion_overhead

    def test_silica_energy_lower_than_sp(self):
        trace_args = {"rate": 1.5, "hours": 0.5, "seed": 11}
        _, silica = _run(SimConfig(policy="silica", num_platters=500, seed=11), trace_args)
        _, sp = _run(SimConfig(policy="sp", num_platters=500, seed=11), trace_args)
        assert silica.shuttles.energy_per_platter_op < sp.shuttles.energy_per_platter_op


class TestDriveAccounting:
    def test_verification_fills_idle_time(self):
        """Drives verify whenever not serving reads: utilization stays high
        (Figure 6) because verify soaks up all non-switching time."""
        _, report = _run(SimConfig(num_platters=500, seed=12))
        assert report.drive_utilization.utilization > 0.90
        assert report.drive_utilization.verify_fraction > report.drive_utilization.read_fraction

    def test_switch_time_excluded_from_utilization(self):
        util = DriveUtilization(read_seconds=10, verify_seconds=80, switch_seconds=10, total_seconds=100)
        assert util.utilization == pytest.approx(0.9)

    def test_per_drive_reports(self):
        kernel, report = _run(SimConfig(num_drives=20, num_platters=500, seed=13))
        assert len(report.per_drive_utilization) == 20

    def test_bytes_verified_positive(self):
        _, report = _run(SimConfig(num_platters=500, seed=14))
        assert report.bytes_verified > 0

    def test_fast_switching_ablation_reduces_utilization(self):
        trace_args = {"rate": 2.0, "hours": 0.5, "seed": 15}
        _, fast = _run(SimConfig(fast_switching=True, num_platters=500, seed=15), trace_args)
        _, slow = _run(SimConfig(fast_switching=False, num_platters=500, seed=15), trace_args)
        assert slow.drive_utilization.switch_fraction > fast.drive_utilization.switch_fraction
        assert slow.drive_utilization.utilization < fast.drive_utilization.utilization


class TestTrackReads:
    def test_multi_track_files_scan_longer(self):
        small_args = {"rate": 0.3, "hours": 0.3, "seed": 16, "fixed_size": 1_000_000}
        big_args = {"rate": 0.3, "hours": 0.3, "seed": 16, "fixed_size": 200_000_000}
        _, small = _run(SimConfig(num_platters=300, seed=16), small_args)
        _, big = _run(SimConfig(num_platters=300, seed=16), big_args)
        assert big.bytes_read > small.bytes_read * 5

    def test_minimum_read_is_one_track(self):
        """Even a 1-byte file scans a whole track (the minimum read unit)."""
        args = {"rate": 0.3, "hours": 0.3, "seed": 17, "fixed_size": 1}
        kernel, report = _run(SimConfig(num_platters=300, seed=17), args)
        per_request = report.bytes_read / report.completions.count
        assert per_request >= kernel.config.track_read_bytes * 0.99


class TestSharding:
    def test_large_files_fan_out(self):
        """Files above the shard limit split across platters (Section 6)."""
        config = SimConfig(num_platters=500, shard_tracks_limit=10, seed=18)
        args = {"rate": 0.1, "hours": 0.3, "seed": 18, "fixed_size": 2_000_000_000}
        kernel, report = _run(config, args)
        parents = [
            r for r in kernel.lifecycle.all_requests if r.children and r.parent is None
        ]
        assert parents
        for parent in parents:
            platters = {c.platter_id for c in parent.children}
            assert len(platters) == len(parent.children)  # distinct platters
            assert parent.done

    def test_shard_track_budget_respected(self):
        config = SimConfig(num_platters=500, shard_tracks_limit=10, seed=19)
        args = {"rate": 0.1, "hours": 0.3, "seed": 19, "fixed_size": 2_000_000_000}
        kernel, _ = _run(config, args)
        for request in kernel.lifecycle.all_requests:
            if request.parent is not None:
                assert request.num_tracks <= 10


class TestUnavailability:
    def test_recovery_fan_out_16x(self):
        """Requests to unavailable platters become I_p sub-reads (Fig. 8)."""
        config = SimConfig(num_platters=400, unavailable_fraction=0.1, seed=20)
        args = {"rate": 0.3, "hours": 0.3, "seed": 20}
        kernel, report = _run(config, args)
        recovered = [
            r
            for r in kernel.lifecycle.all_requests
            if r.parent is None
            and r.children
            and r.platter_id in kernel.lifecycle.unavailable
        ]
        assert recovered
        for parent in recovered:
            assert len(parent.children) == config.platter_set_information
            assert parent.done

    def test_unavailable_capped_per_set(self):
        config = SimConfig(num_platters=950, unavailable_fraction=0.1, seed=21)
        kernel = SimKernel(config)
        group = config.platter_set_information + config.platter_set_redundancy
        per_set = {}
        for platter in kernel.lifecycle.unavailable:
            set_id = kernel.robotics.platter_index[platter] // group
            per_set[set_id] = per_set.get(set_id, 0) + 1
        assert max(per_set.values()) <= config.platter_set_redundancy

    def test_unavailability_increases_tail(self):
        args = {"rate": 0.5, "hours": 0.3, "seed": 22}
        _, healthy = _run(SimConfig(num_platters=400, seed=22), args)
        _, degraded = _run(
            SimConfig(num_platters=400, unavailable_fraction=0.1, seed=22), args
        )
        assert degraded.completions.tail > healthy.completions.tail
        assert degraded.bytes_read > healthy.bytes_read  # read amplification


class TestSkew:
    def test_zipf_concentrates_load(self):
        config = SimConfig(num_platters=400, seed=23)
        trace, start, end = _trace(rate=1.0, hours=0.4, seed=23)
        kernel = SimKernel(config)
        kernel.lifecycle.assign_trace(trace, start, end, skew=3.3)
        counts = {}
        for request in kernel.lifecycle.all_requests:
            counts[request.platter_id] = counts.get(request.platter_id, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # Most-read platter dominates by about an order of magnitude (§7.5).
        assert ranked[0] > 5 * ranked[1]

    def test_work_stealing_helps_under_skew(self):
        args = dict(rate=1.2, hours=0.4, seed=24, fixed_size=40_000_000)
        trace, start, end = _trace(**args)
        results = {}
        for stealing in (True, False):
            kernel = SimKernel(
                SimConfig(num_platters=400, work_stealing=stealing, seed=24)
            )
            kernel.lifecycle.assign_trace(trace, start, end, skew=2.0)
            results[stealing] = kernel.run()
        assert results[True].completions.tail < results[False].completions.tail
        assert results[True].shuttles.steals > 0


class TestBatteryManagement:
    def test_low_battery_triggers_recharge(self):
        """Controller duty (§4.1): shuttles below threshold go charge."""
        args = {"rate": 1.0, "hours": 0.5, "seed": 30}
        config = SimConfig(
            num_platters=400,
            battery_capacity_joules=3000.0,  # tiny battery: forces charging
            recharge_seconds=120.0,
            seed=30,
        )
        kernel, report = _run(config, args)
        assert kernel.ctx.counters.recharges.value > 0
        assert report.requests_completed == report.requests_submitted
        for shuttle_sim in kernel.robotics.shuttles:
            # No shuttle ran to empty and kept working.
            assert shuttle_sim.shuttle.battery_joules >= 0

    def test_disabled_battery_management_never_recharges(self):
        args = {"rate": 0.5, "hours": 0.3, "seed": 31}
        config = SimConfig(
            num_platters=400, battery_management=False, seed=31
        )
        kernel, report = _run(config, args)
        assert kernel.ctx.counters.recharges.value == 0
