"""Golden replay: a seeded kernel run is byte-identical when repeated.

Two independent :class:`repro.core.sim.SimKernel` runs under the same
config and seed — each with its own freshly generated trace, fault
schedule and tracer — must produce the *identical* report (every metric,
compared as dicts), the identical structured-trace event stream, and the
identical metrics export: across dispatch policies, under fault schedules,
with tenancy enabled, and with skewed platter assignment. Any divergence
means hidden state leaked into a run (an unseeded draw, iteration over an
unordered container, wall-clock input), which the bench comparator's
EXACT gate would also catch; this test catches it earlier and names the
event.
"""

import pytest

from repro.core.metrics import CompletionStats
from repro.core.sim import SimConfig, SimKernel
from repro.faults import ChaosConfig, FaultModel, FaultSchedule
from repro.observability import Tracer
from repro.tenancy import skewed_mix
from repro.workload.generator import WorkloadGenerator


def _trace(rate=0.5, hours=0.4, seed=11, registry=None):
    generator = WorkloadGenerator(seed=seed)
    if registry is not None:
        return generator.multi_tenant_trace(
            registry, interval_hours=hours, warmup_hours=0.1, cooldown_hours=0.1
        )
    return generator.interval_trace(
        rate,
        interval_hours=hours,
        warmup_hours=0.1,
        cooldown_hours=0.1,
        fixed_size=4_000_000,
    )


def _run(config, trace_kwargs, skew=None, chaos=None):
    """One independent run: fresh trace, schedule, tracer and kernel."""
    trace, start, end = _trace(**trace_kwargs)
    tracer = Tracer()
    kernel = SimKernel(config, tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end, skew=skew)
    if chaos is not None:
        kernel.faults.apply_fault_schedule(
            FaultSchedule.generate(chaos, config.num_shuttles, config.num_drives)
        )
    report = kernel.run()
    return report, tracer.events(), kernel.ctx.metrics.as_dict()


def _assert_identical(first, second):
    a_report, a_events, a_metrics = first
    b_report, b_events, b_metrics = second
    assert a_report.as_dict() == b_report.as_dict()
    assert len(a_events) == len(b_events)
    for a_event, b_event in zip(a_events, b_events):
        assert a_event == b_event
    assert a_metrics == b_metrics


def _assert_deterministic(config, trace_kwargs, **run_kwargs):
    _assert_identical(
        _run(config, trace_kwargs, **run_kwargs),
        _run(config, trace_kwargs, **run_kwargs),
    )


@pytest.mark.parametrize("policy", ["silica", "sp", "ns"])
def test_policies_replay_identically(policy):
    config = SimConfig(policy=policy, num_platters=400, num_drives=8,
                       num_shuttles=8, seed=5)
    _assert_deterministic(config, {})


def test_fault_schedule_replays_identically():
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8,
                       transient_read_error_prob=0.02, seed=7)
    _, _, end = _trace(seed=13)
    chaos = ChaosConfig(
        horizon_seconds=end + 0.1 * 3600.0,
        shuttle=FaultModel(mtbf_seconds=900.0, mttr_seconds=120.0),
        drive=FaultModel(mtbf_seconds=1200.0, mttr_seconds=240.0),
        metadata=FaultModel(mtbf_seconds=1800.0, mttr_seconds=60.0),
        seed=7,
    )
    _assert_deterministic(config, {"seed": 13}, chaos=chaos)


def test_tenancy_replays_identically():
    registry = skewed_mix(num_tenants=4, seed=3, total_rate_per_second=0.6,
                          zero_quota_tenant=True)
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8,
                       tenancy=registry, fetch_policy="deadline", seed=3)
    _assert_deterministic(config, {"registry": registry})


def test_skewed_assignment_replays_identically():
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8, seed=9)
    _assert_deterministic(config, {"seed": 17}, skew=1.2)


def _motion_run(config_kwargs, trace, start, end, fine):
    tracer = Tracer()
    config = SimConfig(fine_motion_events=fine, **config_kwargs)
    kernel = SimKernel(config, tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    metrics = kernel.ctx.metrics.as_dict()
    # Closed-form trips exist to schedule fewer events, so the engine
    # counters differ by design; everything else must be byte-equal.
    for key in list(metrics):
        if key.startswith("sim_engine_"):
            metrics.pop(key)
    # Coarse mode emits a whole trip's trace records when the trip is
    # planned (stamped with their true future timestamps); fine mode
    # emits each as its event fires. Same records, different emission
    # order — compare as sorted canonical JSON lines.
    events = sorted(event.to_json() for event in tracer.events())
    return report, events, metrics


@pytest.mark.parametrize("policy", ["silica", "sp"])
def test_coarse_motion_replays_fine_when_serialized(policy):
    """Closed-form trips are byte-equal to fine motion on one drive/shuttle.

    The equality only holds on serialized geometry: with a second drive,
    its seek-jitter draws interleave with a trip's draws mid-flight in
    fine mode but not in coarse mode, and the shared RNG stream reorders.
    One drive plus one shuttle removes every interleaving source, so the
    draw sequences — and therefore every simulated metric and trace
    record — must match exactly.
    """
    kwargs = dict(policy=policy, num_platters=120, num_drives=1,
                  num_shuttles=1, seed=5)
    trace, start, end = _trace(rate=0.2)
    _assert_identical(
        _motion_run(kwargs, trace, start, end, fine=True),
        _motion_run(kwargs, trace, start, end, fine=False),
    )


def test_report_population_matches_measured_iterator():
    """The report counts exactly the kernel's request populations.

    ``completions`` summarises ``measured_completed()`` (warm-up and
    cool-down excluded); ``requests_completed`` counts every finished
    top-level request, so it bounds the measured population from above.
    """
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8, seed=21)
    trace, start, end = _trace(seed=21)
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    measured = list(kernel.measured_completed())
    assert measured
    assert all(r.measured and r.done and r.parent is None for r in measured)
    assert report.completions.count == len(measured)
    assert report.completions == CompletionStats.from_times(
        [r.completion_time for r in measured]
    )
    top_level_done = [
        r for r in kernel.lifecycle.all_requests if r.parent is None and r.done
    ]
    assert report.requests_completed == len(top_level_done) >= len(measured)
