"""Golden replay: the facade and the composed kernel are the same machine.

:class:`repro.core.sim.LibrarySimulation` survives as a thin facade
over :class:`repro.core.sim.SimKernel`. These tests pin that equivalence
the strongest way available: under matched seeds, a facade-driven run and
a kernel-driven run must produce the *identical* report (every metric,
compared as dicts), the identical structured-trace event stream, and the
identical metrics export — across dispatch policies, under fault
schedules, and with tenancy enabled. Any divergence means the
decomposition changed behaviour, which the bench comparator's EXACT gate
would also catch — this test just catches it earlier and names the event.
"""

import pytest

from repro.core.sim import LibrarySimulation, SimConfig, SimKernel
from repro.faults import ChaosConfig, FaultModel, FaultSchedule
from repro.observability import Tracer
from repro.tenancy import skewed_mix
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import ReadTrace


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


def _facade_run(config, trace, start, end, schedule=None):
    tracer = Tracer()
    simulation = LibrarySimulation(config, tracer=tracer)
    simulation.assign_trace(trace, start, end)
    if schedule is not None:
        simulation.apply_fault_schedule(schedule)
    report = simulation.run()
    return report, tracer.events(), simulation.metrics.as_dict()


def _kernel_run(config, trace, start, end, schedule=None):
    tracer = Tracer()
    kernel = SimKernel(config, tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    if schedule is not None:
        kernel.faults.apply_fault_schedule(schedule)
    report = kernel.run()
    return report, tracer.events(), kernel.ctx.metrics.as_dict()


def _assert_identical(facade, kernel):
    f_report, f_events, f_metrics = facade
    k_report, k_events, k_metrics = kernel
    assert f_report.as_dict() == k_report.as_dict()
    assert len(f_events) == len(k_events)
    for f_event, k_event in zip(f_events, k_events):
        assert f_event == k_event
    assert f_metrics == k_metrics


@pytest.mark.parametrize("policy", ["silica", "sp", "ns"])
def test_policies_replay_identically(policy):
    config = SimConfig(policy=policy, num_platters=400, num_drives=8,
                       num_shuttles=8, seed=5)
    trace, start, end = _trace()
    _assert_identical(
        _facade_run(config, trace, start, end),
        _kernel_run(config, trace, start, end),
    )


def test_fault_schedule_replays_identically():
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8,
                       transient_read_error_prob=0.02, seed=7)
    trace, start, end = _trace(seed=13)
    horizon = (end + 0.1 * 3600.0)
    chaos = ChaosConfig(
        horizon_seconds=horizon,
        shuttle=FaultModel(mtbf_seconds=900.0, mttr_seconds=120.0),
        drive=FaultModel(mtbf_seconds=1200.0, mttr_seconds=240.0),
        metadata=FaultModel(mtbf_seconds=1800.0, mttr_seconds=60.0),
        seed=7,
    )
    schedule = FaultSchedule.generate(chaos, config.num_shuttles, config.num_drives)
    _assert_identical(
        _facade_run(config, trace, start, end, schedule),
        _kernel_run(config, trace, start, end, schedule),
    )


def test_tenancy_replays_identically():
    registry = skewed_mix(num_tenants=4, seed=3, total_rate_per_second=0.6,
                          zero_quota_tenant=True)
    trace, start, end = _trace(registry=registry)
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8,
                       tenancy=registry, fetch_policy="deadline", seed=3)
    _assert_identical(
        _facade_run(config, trace, start, end),
        _kernel_run(config, trace, start, end),
    )


def test_skewed_assignment_replays_identically():
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8, seed=9)
    trace, start, end = _trace(seed=17)

    tracer_f, tracer_k = Tracer(), Tracer()
    facade = LibrarySimulation(config, tracer=tracer_f)
    facade.assign_trace(trace, start, end, skew=1.2)
    kernel = SimKernel(config, tracer=tracer_k)
    kernel.lifecycle.assign_trace(trace, start, end, skew=1.2)
    assert facade.run().as_dict() == kernel.run().as_dict()
    assert tracer_f.events() == tracer_k.events()


def _motion_run(config_kwargs, trace, start, end, fine):
    tracer = Tracer()
    config = SimConfig(fine_motion_events=fine, **config_kwargs)
    simulation = LibrarySimulation(config, tracer=tracer)
    simulation.assign_trace(trace, start, end)
    report = simulation.run()
    metrics = simulation.metrics.as_dict()
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


def test_facade_population_matches_kernel_iterator():
    """The facade's request list and the kernel's measured iterator agree."""
    config = SimConfig(num_platters=400, num_drives=8, num_shuttles=8, seed=21)
    trace, start, end = _trace(seed=21)
    simulation = LibrarySimulation(config)
    simulation.assign_trace(trace, start, end)
    simulation.run()
    legacy = [
        r
        for r in simulation.all_requests
        if r.measured and r.done and r.parent is None
    ]
    assert legacy == list(simulation.kernel.measured_completed())
    assert len(ReadTrace(list(trace))) == len(trace)
