"""The one place benchmark workloads are defined.

Historically each script under ``benchmarks/`` hand-rolled its own
simulator setup; this module centralizes those definitions so the pytest
benchmarks (via ``benchmarks/conftest.py``) and the continuous-bench
registry (``python -m repro bench``) run *the same* workloads:

* :class:`BenchScale` + :func:`scale_for` — the paper-scale vs
  minutes-scale knobs previously private to ``conftest.py``;
* :func:`build_library_sim` / :func:`build_full_library_sim` — prepared
  (trace assigned, not yet run) digital-twin simulations for the profile
  benchmarks and the Figure 9 full-library replay;
* :func:`headline_metrics` — the flat, deterministic simulated-time
  metric set every bench artifact records;
* :func:`default_registry` — the named scenarios of the ``fast`` (every
  PR) and ``full`` (paper scale) suites.

Scenario seeds are explicit and fixed: for a given seed the simulator is
bit-deterministic, so any change in a scenario's simulated metrics is a
behaviour change, never noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.metrics import SimulationReport
from ..core.sim import SimConfig, SimKernel
from .registry import ScenarioRegistry, ScenarioRun


@dataclass(frozen=True)
class BenchScale:
    """Scaling knobs for the simulated evaluation."""

    interval_hours: float
    warmup_hours: float
    cooldown_hours: float
    rate_factor: float  # multiplies each profile's request rate
    num_platters: int

    def trace_for(self, profile, seed: int = 0, stream: int = 30):
        """Interval trace of ``profile`` at this scale (trace, start, end)."""
        from ..workload.generator import WorkloadGenerator

        generator = WorkloadGenerator(seed=seed)
        return generator.interval_trace(
            profile.mean_rate_per_second * self.rate_factor,
            interval_hours=self.interval_hours,
            warmup_hours=self.warmup_hours,
            cooldown_hours=self.cooldown_hours,
            size_model=profile.size_model,
            burstiness=profile.burstiness,
            stream=stream,
        )


#: Paper-scale: 12-hour measured intervals at full request rates.
FULL_SCALE = BenchScale(
    interval_hours=12.0,
    warmup_hours=2.0,
    cooldown_hours=2.0,
    rate_factor=1.0,
    num_platters=3000,
)

#: Minutes-scale: the default for the pytest benchmark suite.
SMALL_SCALE = BenchScale(
    interval_hours=1.5,
    warmup_hours=0.25,
    cooldown_hours=0.25,
    rate_factor=0.7,
    num_platters=1200,
)

#: Seconds-scale: per-repetition budget of the continuous ``fast`` suite.
BENCH_SCALE = BenchScale(
    interval_hours=0.75,
    warmup_hours=0.125,
    cooldown_hours=0.125,
    rate_factor=0.5,
    num_platters=900,
)


def scale_for(full: bool) -> BenchScale:
    """The pytest-benchmark scale: paper scale when ``full``, else small."""
    return FULL_SCALE if full else SMALL_SCALE


def build_library_sim(
    profile,
    scale: BenchScale = SMALL_SCALE,
    seed: int = 0,
    skew=None,
    **config_kwargs,
) -> SimKernel:
    """A prepared (trace assigned, unrun) library run of ``profile``."""
    trace, start, end = scale.trace_for(profile, seed=seed, stream=30 + seed)
    config_kwargs.setdefault("num_platters", scale.num_platters)
    kernel = SimKernel(SimConfig(seed=seed, **config_kwargs))
    kernel.lifecycle.assign_trace(trace, start, end, skew=skew)
    return kernel


def build_full_library_sim(
    mbps: float, window_hours: float, seed: int = 12
) -> SimKernel:
    """The Figure 9 replay: full-capacity library, ~100 MB files, 1.6 reads/s.

    The paper derives 1.6 reads/s from the 0.3 reads/s early-deployment mean
    with 5% deletion and 10% cool-down over 9 age-folds
    (``repro.workload.lifecycle``).
    """
    from ..library.layout import LibraryConfig
    from ..workload.generator import WorkloadGenerator

    library = LibraryConfig()
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.interval_trace(
        FIG9_RATE_READS_PER_SEC,
        interval_hours=window_hours,
        warmup_hours=0.5,
        cooldown_hours=0.5,
        fixed_size=FIG9_FILE_BYTES,
        stream=60,
    )
    kernel = SimKernel(
        SimConfig(
            drive_throughput_mbps=float(mbps),
            num_platters=library.storage_capacity,  # fully populated
            seed=seed,
            library=library,
        )
    )
    kernel.lifecycle.assign_trace(trace, start, end)
    return kernel


FIG9_RATE_READS_PER_SEC = 1.6
FIG9_FILE_BYTES = 100_000_000


def headline_metrics(report: SimulationReport) -> Dict[str, float]:
    """The flat simulated-time metric set a bench artifact records.

    Every value is a pure function of the seed (the simulator is
    deterministic), so the comparator requires them to match a same-seed
    baseline *exactly* — any drift is a behaviour change.
    """
    completions = report.completions
    metrics: Dict[str, float] = {
        "requests_submitted": float(report.requests_submitted),
        "requests_completed": float(report.requests_completed),
        "completion_p50_seconds": completions.median,
        "completion_p99_seconds": completions.p99,
        "completion_p999_seconds": completions.p999,
        "bytes_read": report.bytes_read,
        "drive_utilization": report.drive_utilization.utilization,
        "congestion_overhead": report.shuttles.congestion_overhead,
        "simulated_seconds": report.simulated_seconds,
    }
    if report.resilience is not None:
        metrics["availability"] = report.resilience.availability
        metrics["faults_injected"] = float(report.resilience.faults_injected)
        metrics["faults_repaired"] = float(report.resilience.faults_repaired)
    return metrics


# ------------------------------------------------------------------ #
# Scenario builders (each returns a fresh ScenarioRun per repetition)
# ------------------------------------------------------------------ #


def _kernel_run(kernel: SimKernel) -> ScenarioRun:
    """One repetition that runs a prepared kernel and reports its headline."""
    return ScenarioRun(
        execute=lambda: headline_metrics(kernel.run()),
        simulation=kernel.ctx.sim,
        kernel=kernel,
    )


def _library_profile_run(profile_name: str, scale: BenchScale, seed: int) -> ScenarioRun:
    from ..workload.profiles import profile_by_name

    return _kernel_run(
        build_library_sim(profile_by_name(profile_name), scale=scale, seed=seed)
    )


def _full_library_run(mbps: float, window_hours: float, seed: int) -> ScenarioRun:
    return _kernel_run(build_full_library_sim(mbps, window_hours, seed=seed))


def _chaos_run(scale: BenchScale, seed: int) -> ScenarioRun:
    from ..faults import ChaosConfig, FaultModel, FaultSchedule
    from ..workload.profiles import IOPS

    kernel = build_library_sim(
        IOPS, scale=scale, seed=seed, transient_read_error_prob=0.002
    )
    horizon = (
        scale.interval_hours + scale.warmup_hours + scale.cooldown_hours
    ) * 3600.0
    chaos = ChaosConfig(
        horizon_seconds=horizon,
        shuttle=FaultModel(mtbf_seconds=1800.0, mttr_seconds=300.0),
        drive=FaultModel(mtbf_seconds=2400.0, mttr_seconds=600.0),
        seed=seed,
    )
    schedule = FaultSchedule.generate(
        chaos, kernel.config.num_shuttles, kernel.config.num_drives
    )
    kernel.faults.apply_fault_schedule(schedule)
    return _kernel_run(kernel)


def _event_loop_run(num_events: int, seed: int) -> ScenarioRun:
    from ..core.events import Simulation

    sim = Simulation()

    def execute() -> Dict[str, float]:
        # Pure engine overhead: schedule, fire, and (10%) cancel events.
        counter = {"fired": 0}

        def tick() -> None:
            counter["fired"] += 1

        for i in range(num_events):
            event = sim.schedule(i * 0.001, tick, label="tick")
            if i % 10 == seed % 10:
                event.cancel()
        sim.run()
        return {
            "events_fired": float(counter["fired"]),
            "simulated_seconds": sim.now,
        }

    return ScenarioRun(execute=execute, simulation=sim)


def _workload_run(days: int, seed: int) -> ScenarioRun:
    from ..workload.analysis import (
        peak_over_mean_curve,
        read_size_histogram,
        writes_over_reads,
    )
    from ..workload.generator import WorkloadGenerator

    def execute() -> Dict[str, float]:
        generator = WorkloadGenerator(seed=seed)
        ingress = generator.ingress_series(days)
        reads = generator.characterization_reads(days)
        ratios = writes_over_reads(ingress, reads)
        histogram = read_size_histogram(reads)
        _, pom = peak_over_mean_curve(ingress, [1, 7, 30])
        return {
            "reads_analyzed": float(len(reads)),
            "mean_count_ratio": ratios.mean_count_ratio,
            "mean_byte_ratio": ratios.mean_byte_ratio,
            "small_read_ops_percent": histogram.count_percent[0],
            "peak_over_mean_1d": pom[0],
        }

    return ScenarioRun(execute=execute)


def build_qos_sim(
    fetch_policy: str,
    scale: BenchScale = SMALL_SCALE,
    seed: int = 0,
    num_drives: int = 6,
    total_rate_per_second: float = 6.0,
    hot_share: float = 0.8,
) -> SimKernel:
    """A prepared multi-tenant run under a skewed (hot-tenant) mix.

    One bulk tenant carries ``hot_share`` of the offered rate; expedited
    and standard tenants share the rest. ``num_drives`` is deliberately
    small so the library queues — QoS policies only differ under
    contention. The same (scale, seed) always produces the identical
    trace and mix, so an arrival-order and a deadline-aware twin see
    byte-identical inputs.
    """
    from ..tenancy import skewed_mix
    from ..workload.generator import WorkloadGenerator
    from ..workload.profiles import IOPS

    registry = skewed_mix(
        num_tenants=6,
        seed=seed,
        total_rate_per_second=total_rate_per_second * scale.rate_factor,
        hot_share=hot_share,
    )
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.multi_tenant_trace(
        registry,
        interval_hours=scale.interval_hours,
        warmup_hours=scale.warmup_hours,
        cooldown_hours=scale.cooldown_hours,
        size_model=IOPS.size_model,
    )
    kernel = SimKernel(
        SimConfig(
            seed=seed,
            num_platters=scale.num_platters,
            num_drives=num_drives,
            num_shuttles=num_drives,
            fetch_policy=fetch_policy,
            tenancy=registry,
        )
    )
    kernel.lifecycle.assign_trace(trace, start, end)
    return kernel


def qos_ablation_metrics(
    arrival: SimulationReport, deadline: SimulationReport
) -> Dict[str, float]:
    """Side-by-side QoS metrics of the arrival vs deadline-aware twin runs.

    The ``deadline_beats_arrival_*`` entries encode the acceptance gates
    (expedited p99 and Jain fairness) as 1.0/0.0 simulated metrics, so the
    bench comparator's EXACT-match check fails CI if a change ever stops
    the deadline-aware policy from winning.
    """
    metrics: Dict[str, float] = {}
    for label, report in (("arrival", arrival), ("deadline", deadline)):
        qos = report.qos
        if qos is None:
            raise ValueError(f"{label} run produced no QoS block")
        metrics[f"{label}_requests_completed"] = float(report.requests_completed)
        metrics[f"{label}_jain_index"] = qos.jain_fairness
        metrics[f"{label}_deadline_misses"] = float(qos.deadline_misses)
        for cls in ("expedited", "standard", "bulk"):
            row = qos.per_class.get(cls)
            if row is not None:
                metrics[f"{label}_{cls}_p99_seconds"] = row.completions.p99
                metrics[f"{label}_{cls}_slo_attainment"] = row.slo_attainment
    metrics["deadline_beats_arrival_p99"] = (
        1.0
        if metrics["deadline_expedited_p99_seconds"]
        < metrics["arrival_expedited_p99_seconds"]
        else 0.0
    )
    metrics["deadline_beats_arrival_jain"] = (
        1.0 if metrics["deadline_jain_index"] > metrics["arrival_jain_index"] else 0.0
    )
    return metrics


def _qos_ablation_run(scale: BenchScale, seed: int) -> ScenarioRun:
    arrival = build_qos_sim("arrival", scale=scale, seed=seed)
    deadline = build_qos_sim("deadline", scale=scale, seed=seed)
    return ScenarioRun(
        execute=lambda: qos_ablation_metrics(arrival.run(), deadline.run()),
        simulation=deadline.ctx.sim,
        kernel=deadline,
    )


def fleet_outage_metrics(replicated, single) -> Dict[str, float]:
    """Replicated fleet vs single library under the same library loss.

    Both arguments are :class:`repro.fleet.FleetReport` runs that saw the
    identical ``lib:0`` outage. The ``*_gate`` entries encode the
    acceptance criteria as 1.0/0.0 simulated metrics — replication keeps
    reads >= 99% available while the unreplicated library drops below,
    with failovers and hedge wins actually exercised — so the bench
    comparator's EXACT-match check fails CI if replication ever stops
    carrying the outage.
    """
    metrics: Dict[str, float] = {}
    for label, report in (("replicated", replicated), ("single", single)):
        fleet = report.fleet
        metrics[f"{label}_read_availability"] = fleet.read_availability
        metrics[f"{label}_requests_submitted"] = float(fleet.requests_submitted)
        metrics[f"{label}_requests_served"] = float(fleet.requests_served)
        metrics[f"{label}_served_degraded"] = float(fleet.served_degraded)
        metrics[f"{label}_failovers"] = float(fleet.failovers)
        metrics[f"{label}_hedge_wins"] = float(fleet.hedge_wins)
        metrics[f"{label}_replication_lost"] = float(fleet.replication_lost)
    metrics["replicated_availability_ge_99_gate"] = (
        1.0 if replicated.fleet.read_availability >= 0.99 else 0.0
    )
    metrics["single_availability_lt_99_gate"] = (
        1.0 if single.fleet.read_availability < 0.99 else 0.0
    )
    metrics["replicated_failovers_nonzero_gate"] = (
        1.0 if replicated.fleet.failovers > 0 else 0.0
    )
    metrics["replicated_hedge_wins_nonzero_gate"] = (
        1.0 if replicated.fleet.hedge_wins > 0 else 0.0
    )
    return metrics


def _fleet_outage_run(scale: BenchScale, seed: int) -> ScenarioRun:
    from ..faults import DomainOutage, FaultKind, FleetFaultSchedule
    from ..fleet import FleetConfig, FleetCoordinator
    from ..workload.profiles import IOPS

    trace, start, end = scale.trace_for(IOPS, seed=seed, stream=30 + seed)
    horizon = end + scale.cooldown_hours * 3600.0
    # One whole-library loss squarely inside the measured window, long
    # enough that the single library's retry ladder cannot ride it out.
    outage = DomainOutage(
        domain="lib:0",
        start=start + 0.2 * (end - start),
        duration=0.5 * (end - start),
        kind=FaultKind.TRANSIENT,
    )
    member = SimConfig(num_platters=scale.num_platters, seed=seed)

    def coordinator_for(libraries, replicas, isolation, hedge):
        config = FleetConfig(
            num_libraries=libraries,
            replicas=replicas,
            isolation=isolation,
            member=member,
            hedge=hedge,
            hedge_delay_seconds=60.0,
            seed=seed,
        )
        coordinator = FleetCoordinator(config)
        coordinator.assign_trace(trace, start, end)
        coordinator.apply_fault_schedule(
            FleetFaultSchedule([outage], horizon_seconds=horizon)
        )
        return coordinator

    replicated = coordinator_for(3, 2, "power", hedge=True)
    single = coordinator_for(1, 1, "library", hedge=False)
    return ScenarioRun(
        execute=lambda: fleet_outage_metrics(replicated.run(), single.run())
    )


#: Library-size axis of the dispatch scale sweep: (num_platters,
#: num_drives == num_shuttles) pairs, smallest first.
SWEEP_SIZES = ((300, 3), (900, 6), (1800, 9))

#: Request-rate axis: multiples of the IOPS profile's mean rate.
SWEEP_RATE_FACTORS = (0.25, 0.5)


def _dispatch_sweep_run(seed: int) -> ScenarioRun:
    """The dispatch scale sweep: one short run per (size, rate) cell.

    Each cell is an independent seconds-scale IOPS run; the deterministic
    per-cell outcomes (completions, p50, dispatch pass/short-circuit/
    assignment counters, events processed and the engine's push/pop/
    cancelled-skip counters) become simulated metrics, while the
    wall-bound events/s-vs-library-size curve goes into the artifact's
    ``extra`` block, which the comparator ignores.
    """
    from time import perf_counter

    from ..workload.profiles import IOPS

    cells = []
    for platters, drives in SWEEP_SIZES:
        for rate in SWEEP_RATE_FACTORS:
            scale = BenchScale(
                interval_hours=0.5,
                warmup_hours=0.125,
                cooldown_hours=0.125,
                rate_factor=rate,
                num_platters=platters,
            )
            kernel = build_library_sim(
                IOPS,
                scale=scale,
                seed=seed,
                num_drives=drives,
                num_shuttles=drives,
            )
            cells.append((platters, drives, rate, kernel))
    curve: List[Dict[str, float]] = []

    def execute() -> Dict[str, float]:
        del curve[:]
        metrics: Dict[str, float] = {}
        for platters, drives, rate, kernel in cells:
            t0 = perf_counter()
            report = kernel.run()
            wall = perf_counter() - t0
            counters = kernel.ctx.counters
            key = f"p{platters}_r{int(rate * 100)}"
            metrics[f"{key}_requests_completed"] = float(report.requests_completed)
            metrics[f"{key}_completion_p50_seconds"] = report.completions.median
            metrics[f"{key}_dispatch_passes"] = counters.dispatch_passes.value
            metrics[f"{key}_dispatch_short_circuits"] = (
                counters.dispatch_short_circuits.value
            )
            metrics[f"{key}_dispatch_assignments"] = (
                counters.dispatch_assignments.value
            )
            engine = kernel.ctx.sim
            stats = engine.scheduler_stats
            metrics[f"{key}_events_processed"] = float(engine.events_processed)
            metrics[f"{key}_engine_pushes"] = float(stats["pushes"])
            metrics[f"{key}_engine_pops"] = float(stats["pops"])
            metrics[f"{key}_engine_cancelled_skips"] = float(
                stats["cancelled_skips"]
            )
            curve.append(
                {
                    "num_platters": float(platters),
                    "num_drives": float(drives),
                    "rate_factor": rate,
                    "events_processed": float(engine.events_processed),
                    "wall_seconds": wall,
                    "events_per_second": (
                        engine.events_processed / wall if wall > 0 else 0.0
                    ),
                }
            )
        return metrics

    return ScenarioRun(execute=execute, extra=lambda: {"curve": list(curve)})


def _motion_sweep_run(seed: int) -> ScenarioRun:
    """The motion event sweep: fine vs closed-form trips across sizes.

    One cell per (size, motion mode). Each cell's completions, p50, and
    event/engine counts are deterministic and EXACT-gated; the committed
    baseline therefore pins the coarse path's event savings (its
    ``events_processed`` is the structural win) as well as its replay.
    The events/s comparison per mode goes into ``extra``.
    """
    from time import perf_counter

    from ..workload.profiles import IOPS

    cells = []
    for platters, drives in SWEEP_SIZES:
        for mode in ("fine", "coarse"):
            scale = BenchScale(
                interval_hours=0.5,
                warmup_hours=0.125,
                cooldown_hours=0.125,
                rate_factor=0.5,
                num_platters=platters,
            )
            kernel = build_library_sim(
                IOPS,
                scale=scale,
                seed=seed,
                num_drives=drives,
                num_shuttles=drives,
                fine_motion_events=(mode == "fine"),
            )
            cells.append((platters, mode, kernel))
    curve: List[Dict[str, float]] = []

    def execute() -> Dict[str, float]:
        del curve[:]
        metrics: Dict[str, float] = {}
        for platters, mode, kernel in cells:
            t0 = perf_counter()
            report = kernel.run()
            wall = perf_counter() - t0
            engine = kernel.ctx.sim
            key = f"p{platters}_{mode}"
            metrics[f"{key}_requests_completed"] = float(report.requests_completed)
            metrics[f"{key}_completion_p50_seconds"] = report.completions.median
            metrics[f"{key}_events_processed"] = float(engine.events_processed)
            curve.append(
                {
                    "num_platters": float(platters),
                    "mode": mode,
                    "events_processed": float(engine.events_processed),
                    "wall_seconds": wall,
                    "events_per_second": (
                        engine.events_processed / wall if wall > 0 else 0.0
                    ),
                }
            )
        return metrics

    return ScenarioRun(execute=execute, extra=lambda: {"curve": list(curve)})


def build_serve_soak(seed: int):
    """The serve_soak scenario's (core, spec) pair, identically tuned.

    Free-running (dilation 0), sampling off — the bench runner owns the
    kernel's single sampler slot during its instrumented pass. The quota
    is tuned so every reject is refill-driven (finite ``Retry-After``,
    retry eventually admitted, zero skips): the burst depth comfortably
    exceeds the largest soak object, and the refill rate is low enough
    that the hot tenant still trips admission under burst arrivals.
    """
    from ..serve import ArchiveServerCore, ServeConfig, SoakSpec

    config = ServeConfig(
        dilation=0.0,
        seed=seed,
        tenants=3,
        quota_mbps=3.0,
        quota_burst_mb=1024.0,
        sample_interval_seconds=0.0,
        sim=SimConfig(
            num_drives=4, num_shuttles=4, num_platters=200, seed=seed
        ),
    )
    return ArchiveServerCore(config), SoakSpec(seed=seed)


def _serve_soak_run(seed: int) -> ScenarioRun:
    """Sustained virtual-time load through the live-serving path.

    Every metric — counters, simulated latency percentiles, the
    all-clients-finished and tracer/controller reject-parity gates — is
    deterministic, so the comparator EXACT-gates the whole serving path:
    catalog, admission, ticket resolution, tracer tap.
    """
    from ..serve import run_soak

    core, spec = build_serve_soak(seed)
    return ScenarioRun(
        execute=lambda: run_soak(core, spec),
        simulation=core.sim,
        kernel=core.kernel,
    )


def _archive_run(payload_bytes: int, seed: int) -> ScenarioRun:
    from ..service import ArchiveService, ServiceConfig

    def execute() -> Dict[str, float]:
        # key_seed pins the per-file encryption keys so the simulated
        # metrics are bit-identical across processes and machines — the
        # comparator treats any drift in them as a behaviour change.
        service = ArchiveService(ServiceConfig(key_seed=seed))
        payload = bytes((seed + i) % 251 for i in range(payload_bytes))
        service.put("bench/roundtrip", payload)
        recovered = service.get("bench/roundtrip")
        report = service.verifier.reports[-1]
        return {
            "payload_bytes": float(payload_bytes),
            "roundtrip_ok": 1.0 if recovered == payload else 0.0,
            "sectors_checked": float(report.sectors_checked),
            "sectors_failed": float(report.sectors_failed),
        }

    return ScenarioRun(execute=execute)


def default_registry() -> ScenarioRegistry:
    """The registry behind ``python -m repro bench``: fast + full suites."""
    registry = ScenarioRegistry()
    registry.add(
        "event_loop",
        "raw discrete-event engine: 50k schedule/cancel/fire cycles",
        suite="fast",
        seed=0,
        build=lambda: _event_loop_run(50_000, seed=0),
        repetitions=3,
        warmup=1,
    )
    registry.add(
        "workload_characterization",
        "Figure 1 statistics over a 60-day synthetic workload",
        suite="fast",
        seed=42,
        build=lambda: _workload_run(60, seed=42),
        repetitions=3,
        warmup=1,
    )
    registry.add(
        "archive_roundtrip",
        "put/verify/get of a ~4 KB payload through the full data path",
        suite="fast",
        seed=7,
        build=lambda: _archive_run(4096, seed=7),
        repetitions=3,
        warmup=1,
    )
    registry.add(
        "simulate_iops",
        "digital twin, IOPS profile, seconds-scale interval",
        suite="fast",
        seed=0,
        build=lambda: _library_profile_run("IOPS", BENCH_SCALE, seed=0),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "simulate_typical",
        "digital twin, Typical profile, seconds-scale interval",
        suite="fast",
        seed=0,
        build=lambda: _library_profile_run("Typical", BENCH_SCALE, seed=0),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "chaos_faults",
        "IOPS run under shuttle+drive fault schedule with repair clocks",
        suite="fast",
        seed=3,
        build=lambda: _chaos_run(BENCH_SCALE, seed=3),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "qos_ablation",
        "arrival vs deadline-aware fetch under a skewed multi-tenant mix",
        suite="fast",
        seed=5,
        build=lambda: _qos_ablation_run(BENCH_SCALE, seed=5),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "fleet_outage",
        "replicated 3-library fleet vs a single library losing lib:0",
        suite="fast",
        seed=9,
        build=lambda: _fleet_outage_run(BENCH_SCALE, seed=9),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "dispatch_scale_sweep",
        "dispatch throughput curve over library size x request rate",
        suite="fast",
        seed=4,
        build=lambda: _dispatch_sweep_run(seed=4),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "motion_event_sweep",
        "fine vs closed-form shuttle-trip events over library size",
        suite="fast",
        seed=4,
        build=lambda: _motion_sweep_run(seed=4),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "serve_soak",
        "live-serving path under closed-loop tenant load, virtual time",
        suite="fast",
        seed=11,
        build=lambda: _serve_soak_run(seed=11),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "fig9_full_library",
        "Figure 9 replay: full library, 100 MB files, 60 MB/s drives",
        suite="fast",
        seed=12,
        build=lambda: _full_library_run(60.0, 0.75, seed=12),
        repetitions=2,
        warmup=0,
    )
    registry.add(
        "simulate_iops_full",
        "digital twin, IOPS profile, paper-scale 12 h interval",
        suite="full",
        seed=0,
        build=lambda: _library_profile_run("IOPS", FULL_SCALE, seed=0),
        repetitions=1,
        warmup=0,
    )
    registry.add(
        "fig9_full_library_full",
        "Figure 9 replay at the paper's 6 h measurement window",
        suite="full",
        seed=12,
        build=lambda: _full_library_run(60.0, 6.0, seed=12),
        repetitions=1,
        warmup=0,
    )
    return registry
