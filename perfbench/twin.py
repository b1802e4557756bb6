"""The two digital-twin workloads: ``twin_fig9`` and ``twin_chaos``.

Both are built from the simulator's surviving public entry points —
:class:`~repro.workload.generator.WorkloadGenerator` for the trace,
:class:`~repro.core.sim.SimKernel` for the library and
:class:`~repro.faults.FaultSchedule` for the chaos schedule — and timed
from outside: the clean pass times each step of the engine, the traced pass
attaches ``Simulation.observer`` and classifies every event label with
``repro.core.sim.SUBSYSTEM_LABELS``.

One repetition sets up a fresh kernel for the seed and steps it to
quiescence one simulated minute at a time with ``Simulation.run(until=...)``
— the way :class:`~repro.core.events.PacedEngine` advances the twin behind
the live server — so each step is an operation with a host wall time. A
run that drains mid-minute ends on that minute's boundary. Every
repetition of a seed does identical simulated work, which the
deterministic counters check.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    MIN_REPETITIONS,
    Outcome,
    check,
    median,
    percentile,
    position_medians,
    probe_scale,
    same_counts,
)
from repro.core.sim import SUBSYSTEM_LABELS, SimConfig, SimKernel
from repro.faults import ChaosConfig, FaultModel, FaultSchedule
from repro.library.layout import LibraryConfig
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import IOPS
from spans import Recorder

#: Figure 9 replay: fully populated library, ~100 MB reads at 1.6 reads/s
#: (the lifecycle-derived rate of ``repro.workload.lifecycle``), 60 MB/s drives.
FIG9_RATE = 1.6
FIG9_FILE_BYTES = 100_000_000
FIG9_WINDOW_HOURS = 1.0

#: Chaos: the IOPS profile's small reads at half its mean rate on 900
#: platters, a seeded shuttle + drive fault schedule with repair clocks and
#: 0.2% transient read errors. Load and fault rates sit below saturation:
#: near it, one fault cluster doubles a run's work and its figures swing
#: with the seed.
CHAOS_WINDOW_HOURS = 1.0
CHAOS_RATE_FACTOR = 0.5
CHAOS_PLATTERS = 900
CHAOS_READ_ERROR_PROB = 0.002
CHAOS_SHUTTLE_MTBF_S = 7200.0
CHAOS_SHUTTLE_MTTR_S = 300.0
CHAOS_DRIVE_MTBF_S = 9600.0
CHAOS_DRIVE_MTTR_S = 600.0

#: Simulated seconds per step (one operation of a twin workload).
STEP_SIM_S = 60.0
#: Steps between host-speed probes in a clean pass (about 0.2 s of work).
PROBE_EVERY_STEPS = 20

#: Subsystems with per-layer metrics. The verification subsystem is a fluid
#: model settled inside ``SimKernel.report`` (timed as ``report.s``); it
#: schedules no events, so an event-based row for it would always read 0.
SIM_SUBSYSTEMS = ("dispatch", "robotics", "motion", "lifecycle", "faults")


@dataclass
class Built:
    """A prepared kernel and how long each set-up step took."""

    kernel: object
    requests: int
    sim_hours: float
    trace_s: float
    kernel_s: float
    assign_s: float

    @property
    def setup_s(self) -> float:
        return self.trace_s + self.kernel_s + self.assign_s


def _timed(fn: Callable[[], object]) -> Tuple[object, float]:
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def build_fig9(seed: int) -> Built:
    """Set up one Figure 9 replay kernel (trace, kernel, assignment)."""
    (trace, start, end), trace_s = _timed(
        lambda: WorkloadGenerator(seed=seed).interval_trace(
            FIG9_RATE,
            interval_hours=FIG9_WINDOW_HOURS,
            warmup_hours=0.5,
            cooldown_hours=0.5,
            fixed_size=FIG9_FILE_BYTES,
            stream=60,
        )
    )
    library = LibraryConfig()
    config = SimConfig(
        drive_throughput_mbps=60.0,
        num_platters=library.storage_capacity,
        seed=seed,
        library=library,
    )
    kernel, kernel_s = _timed(lambda: SimKernel(config))
    _, assign_s = _timed(lambda: kernel.lifecycle.assign_trace(trace, start, end))
    return Built(kernel, len(trace), FIG9_WINDOW_HOURS + 1.0, trace_s, kernel_s, assign_s)


def build_chaos(seed: int) -> Built:
    """Set up one chaos kernel (trace, kernel, assignment + fault schedule)."""
    hours = CHAOS_WINDOW_HOURS + 0.5
    (trace, start, end), trace_s = _timed(
        lambda: WorkloadGenerator(seed=seed).interval_trace(
            IOPS.mean_rate_per_second * CHAOS_RATE_FACTOR,
            interval_hours=CHAOS_WINDOW_HOURS,
            warmup_hours=0.25,
            cooldown_hours=0.25,
            size_model=IOPS.size_model,
            stream=31,
        )
    )
    config = SimConfig(
        num_platters=CHAOS_PLATTERS,
        seed=seed,
        transient_read_error_prob=CHAOS_READ_ERROR_PROB,
    )
    kernel, kernel_s = _timed(lambda: SimKernel(config))

    def assign() -> None:
        kernel.lifecycle.assign_trace(trace, start, end)
        chaos = ChaosConfig(
            horizon_seconds=hours * 3600.0,
            shuttle=FaultModel(CHAOS_SHUTTLE_MTBF_S, CHAOS_SHUTTLE_MTTR_S),
            drive=FaultModel(CHAOS_DRIVE_MTBF_S, CHAOS_DRIVE_MTTR_S),
            seed=seed,
        )
        schedule = FaultSchedule.generate(chaos, config.num_shuttles, config.num_drives)
        kernel.faults.apply_fault_schedule(schedule)

    _, assign_s = _timed(assign)
    return Built(kernel, len(trace), hours, trace_s, kernel_s, assign_s)


def step_to_quiescence(
    sim,
    walls: List[float],
    scales: Optional[List[float]] = None,
    on_step: Optional[Callable[[float, float], None]] = None,
) -> None:
    """Advance ``sim`` minute by minute until no event is pending.

    Appends the host wall of every step to ``walls``. Minutes with no
    event are skipped, as a paced loop sleeps through them. With
    ``scales``, the host speed is probed every :data:`PROBE_EVERY_STEPS`
    steps and each step's :func:`common.probe_scale` is appended to it.
    ``on_step(start, end)`` is told each step's span.
    """
    scale = probe_scale() if scales is not None else 1.0
    while True:
        upcoming = sim.peek()
        if upcoming is None:
            return
        until = (math.floor(upcoming / STEP_SIM_S) + 1) * STEP_SIM_S
        start = perf_counter()
        sim.run(until=until)
        end = perf_counter()
        walls.append(end - start)
        if on_step is not None:
            on_step(start, end)
        if scales is not None:
            scales.append(scale)
            if len(walls) % PROBE_EVERY_STEPS == 0:
                scale = probe_scale()


def check_run(kernel, report) -> None:
    """Conservation checks on a finished kernel; raise on any violation.

    Every submitted top-level request completed (a lost read completes as
    lost) and its completion was recorded exactly once, and no drive or
    shuttle was busy for longer than the simulated time.
    """
    top = [r for r in kernel.lifecycle.all_requests if r.parent is None]
    check(len(top) == report.requests_submitted, "request census disagrees with report")
    unfinished = sum(1 for r in top if not r.done)
    check(unfinished == 0, f"{unfinished} submitted requests never completed")
    measured = sum(1 for r in top if r.measured)
    recorded = kernel.ctx.counters.h_completion.count
    check(
        recorded == measured,
        f"{recorded} completions recorded for {measured} measured requests",
    )
    lost = int(kernel.ctx.counters.requests_lost.value)
    check(0 <= lost <= len(top), f"{lost} lost of {len(top)} submitted")
    total = report.simulated_seconds
    slack = 1e-6 * max(1.0, total)
    for drive in kernel.robotics.drives:
        busy = drive.read_seconds + drive.switch_seconds
        check(busy <= total + slack, f"drive {drive.drive_id} busy {busy} > {total}")
    for shuttle in kernel.robotics.shuttles:
        travel = shuttle.shuttle.stats.travel_seconds
        check(travel <= total + slack, f"shuttle travel {travel} > sim time {total}")


def run_counts(kernel, report) -> Dict[str, object]:
    """Deterministic work counters of one finished run (exact per seed)."""
    counters = kernel.ctx.counters
    engine = kernel.ctx.sim.scheduler_stats
    return {
        "events": kernel.ctx.sim.events_processed,
        "pushes": engine["pushes"],
        "cancelled_skips": engine["cancelled_skips"],
        "dispatch_passes": int(counters.dispatch_passes.value),
        "dispatch_assignments": int(counters.dispatch_assignments.value),
        "work_steals": int(counters.steals.value),
        "reread_retries": int(counters.reread.value),
        "deep_decodes": int(counters.deep_decode.value),
        "recovery_escalations": int(counters.escalations.value),
        "requests_lost": int(counters.requests_lost.value),
        "faults_injected": int(counters.faults_injected.value),
        "faults_repaired": int(counters.faults_repaired.value),
        "submitted": report.requests_submitted,
        "completed": report.requests_completed,
        "sim_p50_s": repr(report.completions.median),
        "sim_p99_s": repr(report.completions.p99),
        "drive_utilization": repr(report.drive_utilization.utilization),
        "congestion_overhead": repr(report.shuttles.congestion_overhead),
    }


class TwinWorkload:
    """One simulator workload: a set-up function plus the shared measurement."""

    def __init__(self, name: str, build: Callable[[int], Built]):
        self.name = name
        self.build = build

    def memory_unit(self, seed: int) -> None:
        """One set-up and run, for the fresh-process memory pass."""
        built = self.build(seed)
        step_to_quiescence(built.kernel.ctx.sim, [])
        built.kernel.report()

    def clean(self, seed: int, seconds: float) -> Outcome:
        """Repeat set-up + run until ``seconds`` pass (at least :data:`common.MIN_REPETITIONS`).

        Host times are scaled by the speed probe taken beside them, and
        each step's figure is its median across the repetitions
        (:func:`common.position_medians`).
        """
        out = Outcome()
        setups: List[float] = []
        step_walls: List[List[float]] = []
        raw_walls: List[float] = []
        first: Optional[Dict[str, object]] = None
        began = perf_counter()
        while len(setups) < MIN_REPETITIONS or perf_counter() - began < seconds:
            # Collect the last repetition's kernel (it holds reference
            # cycles) outside the timed region, so no repetition pays for
            # its predecessor's garbage.
            gc.collect()
            setup_scale = probe_scale()
            built = self.build(seed)
            kernel = built.kernel
            walls: List[float] = []
            scales: List[float] = []
            step_to_quiescence(kernel.ctx.sim, walls, scales)
            report = kernel.report()
            check_run(kernel, report)
            counts = run_counts(kernel, report)
            if first is None:
                first = counts
            else:
                same_counts(f"{self.name} repetition {len(setups) + 1}", first, counts)
            setups.append(built.setup_s * setup_scale)
            step_walls.append([w * k for w, k in zip(walls, scales)])
            raw_walls.append(sum(walls))
            out.host_seconds.append(sum(step_walls[-1]))
            out.attempted += report.requests_submitted
            out.failed += counts["requests_lost"]
            requests, sim_hours = built.requests, built.sim_hours
            del built, kernel, report
        assert first is not None
        steps = position_medians(step_walls)
        wall = sum(steps)
        out.counts = first
        out.metrics = {
            "setup_s": median(setups),
            "ok_share": (first["completed"] - first["requests_lost"]) / first["submitted"],
            "host_ms_per_op": wall / requests * 1e3,
            "op_p50_ms": percentile(steps, 50) * 1e3,
            "twin.step_p99_ms": percentile(steps, 99) * 1e3,
            "twin.wall_per_sim_hour_s": wall / sim_hours,
            "sim.p50_s": float(first["sim_p50_s"]),
            "sim.p99_s": float(first["sim_p99_s"]),
        }
        out.notes["repetitions"] = len(setups)
        out.notes["unscaled_ms_per_op"] = median(raw_walls) / requests * 1e3
        out.notes["probe_scale"] = median([sum(s) / w for s, w in zip(step_walls, raw_walls)])
        return out

    def traced(self, seed: int) -> Tuple[Outcome, Recorder]:
        """One set-up + run with a span for every engine event."""
        gc.collect()
        rec = Recorder()
        op = f"{self.name}/seed{seed}"
        build_start = perf_counter()
        built = self.build(seed)
        setup_id = rec.add("setup", build_start, perf_counter(), op=op)
        # The set-up function times its own steps; lay them out as child spans.
        t = build_start
        for name, dur in (
            ("setup.trace", built.trace_s),
            ("setup.kernel", built.kernel_s),
            ("setup.assign", built.assign_s),
        ):
            rec.add(name, t, t + dur, op=op, parent=setup_id)
            t += dur
        kernel = built.kernel
        sim = kernel.ctx.sim
        layer_of = {
            label: layer for layer, labels in SUBSYSTEM_LABELS.items() for label in labels
        }
        # Spans: run -> one "engine.step" per simulated minute -> one span
        # per event, named by the subsystem its label belongs to. Events
        # are recorded before their step ends, so each step's id is
        # reserved when the previous one closes.
        run_id = rec.reserve()
        step_id = [rec.reserve()]
        append = rec.spans.append
        new_id = rec.reserve
        classify = layer_of.get

        def observe(label: str, seconds: float) -> None:
            end = perf_counter()
            append((new_id(), classify(label, "engine"), op, step_id[0], end - seconds, end))

        def on_step(start: float, end: float) -> None:
            rec.add("engine.step", start, end, op=op, parent=run_id, span_id=step_id[0])
            step_id[0] = new_id()

        sim.observer = observe
        walls: List[float] = []
        scales: List[float] = []
        start = perf_counter()
        try:
            step_to_quiescence(sim, walls, scales, on_step)
        finally:
            sim.observer = None
        rec.add("engine.run", start, perf_counter(), op=op, span_id=run_id)
        report = rec.call("report", kernel.report, op=op)
        check_run(kernel, report)
        counts = run_counts(kernel, report)
        table = rec.by_name()

        def layer(name: str, field: str) -> float:
            return table.get(name, {}).get(field, 0.0)

        out = Outcome(counts=counts, host_seconds=[sum(w * k for w, k in zip(walls, scales))])
        out.attempted = report.requests_submitted
        out.failed = counts["requests_lost"]
        passes = counts["dispatch_passes"]
        m = {
            "engine.events": counts["events"],
            "engine.cancelled_skips": counts["cancelled_skips"],
            # A step's self time is the engine loop itself; callbacks with
            # no subsystem label are engine machinery too.
            "engine.self_s": layer("engine.step", "self_s") + layer("engine", "total_s"),
            "dispatch.passes": passes,
            "dispatch.assignments": counts["dispatch_assignments"],
            "dispatch.assign_per_pass": counts["dispatch_assignments"] / passes if passes else 0.0,
            "dispatch.work_steals": counts["work_steals"],
            "robotics.reread_retries": counts["reread_retries"],
            "robotics.deep_decodes": counts["deep_decodes"],
            "lifecycle.recovery_escalations": counts["recovery_escalations"],
            "lifecycle.requests_lost": counts["requests_lost"],
            "faults.injected": counts["faults_injected"],
            "faults.repaired": counts["faults_repaired"],
            "report.s": layer("report", "total_s"),
            "setup.trace_s": built.trace_s,
            "setup.kernel_s": built.kernel_s,
            "setup.assign_s": built.assign_s,
            "sim.drive_utilization": float(counts["drive_utilization"]),
            "sim.congestion_overhead": float(counts["congestion_overhead"]),
        }
        for name in SIM_SUBSYSTEMS:
            m[f"{name}.self_s"] = layer(name, "self_s")
            m[f"{name}.calls"] = layer(name, "calls")
        out.metrics = m
        return out, rec


WORKLOADS = {
    "twin_fig9": TwinWorkload("twin_fig9", build_fig9),
    "twin_chaos": TwinWorkload("twin_chaos", build_chaos),
}
