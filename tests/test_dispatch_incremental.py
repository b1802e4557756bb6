"""Incremental dispatch must be observationally identical to a full rescan.

The dispatch subsystem replaces per-event rescans with dirty-flagged
caches: the cover index, drive routes, the free-partition set with
per-owner refcounts, the partition-heap entry count, the pending-return
list, and the idle-shuttle short circuit. Every one of those caches is an
*optimization contract*: the simulator's behaviour — which shuttle is
assigned which platter on which drive, in which order — must be
bit-identical with the naive rescan.

The rescan lives here, as a test-only reference:
:class:`RescanDispatchSubsystem` overrides each cached query with the
per-event scan it replaces, and :class:`RescanSilicaDispatch` is the
partitioned pass without the pass-level guards. :func:`_reference_dispatch`
swaps the subclass into the kernel for one run.

These tests pin the contract four ways:

* a Hypothesis property test drives randomized workloads (and therefore
  randomized enqueue / end-service / fault / repair interleavings)
  through both and asserts the *assignment logs* — every ``start_fetch``
  and ``start_return``, with timestamps and ids — match exactly, along
  with the full report;
* a regression test forces partition-cover changes *while platters are
  mid-service* (aggressive shuttle faults) — the scenario where a stale
  cover index or free-set owner refcount would silently mis-route or
  skip work;
* golden replays compare report, structured trace and metrics export
  across policies, under faults and with tenancy;
* an invariant check recomputes the free-partition set and owner
  refcounts from scratch after a run and compares them with the
  incrementally maintained ones.
"""

import heapq
from contextlib import contextmanager
from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.sim.kernel
from repro.core.sim import SimConfig, SimKernel
from repro.core.sim.dispatch import DispatchSubsystem
from repro.faults import ChaosConfig, FaultModel, FaultSchedule
from repro.observability import Tracer
from repro.tenancy import skewed_mix
from repro.workload.generator import WorkloadGenerator

from .test_sim_golden_replay import _assert_identical
from .test_sim_golden_replay import _trace as _golden_trace


class RescanSilicaDispatch:
    """The partitioned pass as a full rescan: every shuttle, every
    covered partition, a fresh route and slot check per probe."""

    name = "silica"

    def run(self, d: "RescanDispatchSubsystem") -> None:
        """Assign idle shuttles to returns, then partition fetches."""
        robotics = d.robotics
        d.dispatch_returns()
        policy = robotics.policy
        ctx = d.ctx
        heaps = d.partition_heaps
        donors: Optional[List[int]] = None
        for shuttle_sim in d.shuttle_pool():
            if not shuttle_sim.idle:
                continue
            if d.maybe_recharge(shuttle_sim):
                continue
            shuttle = shuttle_sim.shuttle
            for pid in d.covered_partitions(shuttle.partition):
                drive = d.partition_drive(pid)
                if drive is None or not drive.customer_slot_free:
                    continue
                own_heap = heaps[pid]
                platter = d.pop_candidate(own_heap) if own_heap else None
                stolen = False
                if platter is None and policy.work_stealing:
                    if donors is None:
                        donors = d.steal_donors()
                    for donor in donors:
                        if donor == pid:
                            continue
                        donor_heap = heaps[donor]
                        if not donor_heap:
                            continue
                        platter = d.pop_candidate(donor_heap)
                        if platter is not None:
                            stolen = True
                            break
                if platter is None:
                    continue
                if stolen:
                    policy.steals += 1
                    ctx.counters.steals.inc()
                    if ctx.tracer is not None:
                        ctx.tracer.emit(
                            ctx.sim.now,
                            "sched.steal",
                            component=f"shuttle:{shuttle.shuttle_id}",
                            platter=platter,
                            partition=pid,
                        )
                ctx.counters.dispatch_assignments.inc()
                robotics.start_fetch(shuttle_sim, platter, drive)
                break  # this shuttle is busy now


class RescanDispatchSubsystem(DispatchSubsystem):
    """Dispatch with every cache replaced by the scan it stands for."""

    def __init__(self, ctx, robotics, lifecycle):
        super().__init__(ctx, robotics, lifecycle)
        if ctx.config.policy == "silica":
            self.policy = RescanSilicaDispatch()

    def idle_short_circuit(self):
        """Never short-circuits: the rescan walks everything."""
        return False

    def shuttle_pool(self):
        """Every shuttle, every pass."""
        return self.robotics.shuttles

    def note_return_pending(self, drive):
        """Count only: returns are found by sweeping all drives."""
        self.unassigned_returns += 1

    def dispatch_returns(self):
        """Sweep every drive for a platter awaiting an unassigned return."""
        for drive in self.robotics.drives:
            if drive.awaiting_return is None or drive.return_assigned:
                continue
            shuttle = self.shuttle_for_return(drive)
            if shuttle is None:
                continue
            drive.return_assigned = True
            self.unassigned_returns -= 1
            self.ctx.counters.dispatch_assignments.inc()
            self.robotics.start_return(shuttle, drive)

    def push_candidate(self, platter, priority):
        """The pre-incremental dual push: global heap and partition heap."""
        entry = (priority, platter)
        heapq.heappush(self.global_heap, entry)
        pid = self.platter_partition.get(platter)
        if pid is not None:
            heapq.heappush(self.partition_heaps[pid], entry)

    def steal_donors(self):
        """Re-rank donors on every call."""
        return self.robotics.policy.steal_candidates(self.partition_load)

    def maybe_recharge(self, shuttle_sim):
        """Re-ask robotics every pass (the memo is written, never read)."""
        if self.robotics.maybe_recharge(shuttle_sim):
            return True
        shuttle_sim.no_recharge_memo = True
        return False

    def covered_partitions(self, own_partition):
        """Filter the whole cover map."""
        return [
            pid
            for pid, cover in self.partition_cover.items()
            if cover == own_partition
        ]

    def partition_drive(self, pid):
        """Resolve the route from the tables on every call."""
        return self._route_for(pid)


@contextmanager
def _reference_dispatch():
    """Kernels built inside this block dispatch through the rescan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            repro.core.sim.kernel, "DispatchSubsystem", RescanDispatchSubsystem
        )
        yield


def _trace(rate, seed):
    generator = WorkloadGenerator(seed=seed)
    return generator.interval_trace(
        rate,
        interval_hours=0.2,
        warmup_hours=0.05,
        cooldown_hours=0.05,
        fixed_size=6_000_000,
        stream=seed,
    )


def _chaos_schedule(config, seed, shuttle_mtbf=400.0, drive_mtbf=600.0):
    chaos = ChaosConfig(
        horizon_seconds=0.35 * 3600.0,
        shuttle=FaultModel(mtbf_seconds=shuttle_mtbf, mttr_seconds=90.0),
        drive=FaultModel(mtbf_seconds=drive_mtbf, mttr_seconds=120.0),
        seed=seed,
    )
    return FaultSchedule.generate(chaos, config.num_shuttles, config.num_drives)


def _build(config, reference, tracer=None):
    if not reference:
        return SimKernel(config, tracer=tracer)
    with _reference_dispatch():
        kernel = SimKernel(config, tracer=tracer)
    assert isinstance(kernel.dispatch, RescanDispatchSubsystem)
    return kernel


def _recorded_run(policy, seed, rate, reference, faults=False):
    """Run one small sim and log every dispatch assignment in order."""
    config = SimConfig(
        policy=policy,
        num_platters=240,
        num_drives=4,
        num_shuttles=4,
        seed=seed,
    )
    trace, start, end = _trace(rate, seed)
    kernel = _build(config, reference)
    kernel.lifecycle.assign_trace(trace, start, end)
    if faults:
        kernel.faults.apply_fault_schedule(_chaos_schedule(config, seed))
    robotics = kernel.robotics
    engine = kernel.ctx.sim
    log = []
    orig_fetch = robotics.start_fetch
    orig_return = robotics.start_return

    def start_fetch(shuttle_sim, platter, drive):
        log.append(
            ("fetch", engine.now, shuttle_sim.shuttle.shuttle_id, platter,
             drive.drive_id)
        )
        return orig_fetch(shuttle_sim, platter, drive)

    def start_return(shuttle_sim, drive):
        log.append(
            ("return", engine.now, shuttle_sim.shuttle.shuttle_id,
             drive.drive_id)
        )
        return orig_return(shuttle_sim, drive)

    robotics.start_fetch = start_fetch
    robotics.start_return = start_return
    report = kernel.run()
    return kernel, log, report.as_dict()


def _assert_matches_reference(policy, seed, rate, faults=False):
    kernel_inc, log_inc, report_inc = _recorded_run(
        policy, seed, rate, reference=False, faults=faults
    )
    _, log_ref, report_ref = _recorded_run(
        policy, seed, rate, reference=True, faults=faults
    )
    assert log_inc == log_ref
    assert report_inc == report_ref
    return kernel_inc


interleaving = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["silica", "sp", "ns"]),
        "rate": st.floats(min_value=0.1, max_value=1.2),
        "seed": st.integers(min_value=0, max_value=5_000),
        "faults": st.booleans(),
    }
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(interleaving)
def test_incremental_matches_rescan_order(params):
    """Randomized interleavings: identical assignment order in both."""
    _assert_matches_reference(
        params["policy"], params["seed"], params["rate"], faults=params["faults"]
    )


def test_cover_change_mid_service_keeps_heaps_fresh():
    """Partition-cover rewrites mid-service must not strand heap entries.

    Aggressive shuttle faults rewrite ``partition_cover`` while fetches
    are in flight; a stale cover index, free-set owner refcount, or heap
    entry count would either skip assignable work (order divergence) or
    assign to the wrong shuttle. The run must actually exercise the
    scenario — it asserts shuttle faults fired and repairs happened — and
    still match the rescan byte for byte.
    """
    kernel = _assert_matches_reference("silica", seed=17, rate=0.9, faults=True)
    counters = kernel.ctx.counters
    assert counters.faults_injected.value > 0
    assert counters.faults_repaired.value > 0


def test_free_partition_set_matches_recompute():
    """The maintained free set / owner refcounts equal a fresh recompute."""
    kernel, _, _ = _recorded_run("silica", seed=3, rate=0.8, reference=False)
    dispatch = kernel.dispatch
    maintained = set(dispatch.free_partitions())
    expected = set()
    owners = {}
    for pid, cover in dispatch.partition_cover.items():
        drive = dispatch.partition_drive(pid)
        if drive is not None and drive.customer_slot_free:
            expected.add(pid)
            owners[cover] = owners.get(cover, 0) + 1
    assert maintained == expected
    live_counts = {
        own: count for own, count in dispatch._free_owner_count.items() if count
    }
    assert live_counts == owners


def test_short_circuit_counter_only_counts_incremental_fast_path():
    """The short-circuit counter stays zero on the rescan reference."""
    kernel_inc, _, _ = _recorded_run("silica", seed=5, rate=0.4, reference=False)
    kernel_ref, _, _ = _recorded_run("silica", seed=5, rate=0.4, reference=True)
    assert kernel_inc.ctx.counters.dispatch_short_circuits.value > 0
    assert kernel_ref.ctx.counters.dispatch_short_circuits.value == 0


def _mode_run(config_kwargs, trace, start, end, schedule=None, reference=False):
    tracer = Tracer()
    kernel = _build(SimConfig(**config_kwargs), reference, tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    if schedule is not None:
        kernel.faults.apply_fault_schedule(schedule)
    report = kernel.run()
    metrics = kernel.ctx.metrics.as_dict()
    # The short-circuit counter measures the incremental fast path itself
    # (the rescan reference never takes it); everything else must match.
    metrics.pop("sim_dispatch_short_circuits_total", None)
    return report, tracer.events(), metrics


@pytest.mark.parametrize("policy", ["silica", "sp", "ns"])
def test_incremental_dispatch_replays_rescan(policy):
    """Incremental dispatch is byte-equal to the full-rescan reference."""
    kwargs = dict(policy=policy, num_platters=400, num_drives=8,
                  num_shuttles=8, seed=5)
    trace, start, end = _golden_trace()
    _assert_identical(
        _mode_run(kwargs, trace, start, end),
        _mode_run(kwargs, trace, start, end, reference=True),
    )


def test_incremental_dispatch_replays_rescan_under_faults():
    """Fault/repair-driven cover and routing rewrites replay identically."""
    kwargs = dict(num_platters=400, num_drives=8, num_shuttles=8,
                  transient_read_error_prob=0.02, seed=7)
    trace, start, end = _golden_trace(seed=13)
    chaos = ChaosConfig(
        horizon_seconds=end + 0.1 * 3600.0,
        shuttle=FaultModel(mtbf_seconds=900.0, mttr_seconds=120.0),
        drive=FaultModel(mtbf_seconds=1200.0, mttr_seconds=240.0),
        metadata=FaultModel(mtbf_seconds=1800.0, mttr_seconds=60.0),
        seed=7,
    )
    schedule = FaultSchedule.generate(chaos, 8, 8)
    _assert_identical(
        _mode_run(kwargs, trace, start, end, schedule),
        _mode_run(kwargs, trace, start, end, schedule, reference=True),
    )


def test_incremental_dispatch_replays_rescan_with_tenancy():
    """QoS-scheduled (deadline fetch) runs replay identically."""
    registry = skewed_mix(num_tenants=4, seed=3, total_rate_per_second=0.6,
                          zero_quota_tenant=True)
    trace, start, end = _golden_trace(registry=registry)
    kwargs = dict(num_platters=400, num_drives=8, num_shuttles=8,
                  tenancy=registry, fetch_policy="deadline", seed=3)
    _assert_identical(
        _mode_run(kwargs, trace, start, end),
        _mode_run(kwargs, trace, start, end, reference=True),
    )
