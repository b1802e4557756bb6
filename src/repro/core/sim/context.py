"""The engine-facing simulation context shared by every kernel subsystem.

:class:`SimContext` is deliberately small: the discrete-event engine
(clock), the run's RNG stream, the request scheduler handle, and the
tracer/metrics hooks. Subsystems receive the context at construction and
everything else (sibling subsystems) through explicit ``wire`` calls, so
each can also be built standalone against a stub context in unit tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..events import Simulation
from ..metrics import Counter, Histogram, MetricsRegistry
from ..scheduler import RequestScheduler
from .config import SimConfig
from .hooks import Thunk, TracerLike


class SimCounters:
    """All run counters/histograms, registered on one metrics registry.

    Registration lives here (in one place, in one order) so the exported
    metric names stay byte-identical with the pre-split simulator. QoS
    counters exist only on tenancy-enabled runs so single-tenant metric
    exports stay byte-identical with earlier versions.
    """

    def __init__(self, metrics: MetricsRegistry, tenancy_enabled: bool):
        m = metrics
        self.bytes_read = m.counter(
            "bytes_read_total", "Raw bytes scanned off glass by read drives", "bytes"
        )
        self.recharges = m.counter(
            "recharges_total", "Shuttle battery recharge cycles started"
        )
        self.faults_injected = m.counter(
            "faults_injected_total", "Component faults that actually fired"
        )
        self.faults_repaired = m.counter(
            "faults_repaired_total", "Faults whose repair clock returned the component"
        )
        self.downtime = m.counter(
            "downtime_component_seconds_total",
            "Component-seconds of downtime from closed (repaired) faults",
            "seconds",
        )
        self.metadata_retries = m.counter(
            "metadata_retries_total", "Arrivals bounced off a metadata outage"
        )
        self.metadata_backoff = m.counter(
            "metadata_backoff_seconds_total",
            "Simulated seconds parked requests waited out in retry backoff",
            "seconds",
        )
        self.reread = m.counter(
            "reread_retries_total", "Retry-ladder rung 1: in-place track re-reads"
        )
        self.deep_decode = m.counter(
            "deep_decodes_total", "Retry-ladder rung 2: deeper LDPC iteration budgets"
        )
        self.escalations = m.counter(
            "recovery_escalations_total",
            "Retry-ladder rung 3: escalations to cross-platter NC recovery",
        )
        self.recovery_bytes = m.counter(
            "recovery_bytes_read_total",
            "Raw bytes read by cross-platter NC recovery sub-reads",
            "bytes",
        )
        self.fanout_user_bytes = m.counter(
            "recovery_user_bytes_total",
            "User bytes recovered via cross-platter fan-out",
            "bytes",
        )
        self.requests_lost = m.counter(
            "requests_lost_total", "Reads abandoned with no surviving recovery peer"
        )
        self.steals = m.counter(
            "work_steals_total", "Cross-partition work-stealing fetches"
        )
        # Dispatch hot-path accounting. Deterministic (pure event-order
        # functions of the seed) so they live in the exported metrics;
        # wall-clock dispatch timing stays in the profiler's hotspot table.
        self.dispatch_passes = m.counter(
            "dispatch_passes_total",
            "Dispatch events that ran the assignment policy",
        )
        self.dispatch_short_circuits = m.counter(
            "dispatch_short_circuits_total",
            "Dispatch passes answered by the no-idle-shuttle fast path",
        )
        self.dispatch_assignments = m.counter(
            "dispatch_assignments_total",
            "Fetch, return and mount assignments made by dispatch passes",
        )
        self.h_travel = m.histogram(
            "shuttle_travel_seconds",
            "Per-trip shuttle travel time (including congestion)",
            "seconds",
            buckets=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        self.h_completion = m.histogram(
            "request_completion_seconds",
            "Measured top-level request completion time (arrival to last byte)",
            "seconds",
        )
        self.admission_rejects: Optional[Counter] = None
        self.deadline_misses: Optional[Counter] = None
        if tenancy_enabled:
            self.admission_rejects = m.counter(
                "admission_rejections_total",
                "Reads rejected by tenant ingress quotas",
            )
            self.deadline_misses = m.counter(
                "deadline_misses_total",
                "Measured completions past their SLO-class deadline",
            )


class SimContext:
    """Clock, RNG stream, scheduler handle, and tracer/metrics hooks.

    ``tracer`` is normalized at construction: a disabled tracer collapses
    to ``None`` so every emission site in the subsystems stays a single
    pointer comparison. ``request_dispatch`` is the kernel-wide "new work
    may be assignable" hook; the dispatch subsystem installs itself there
    during composition, and stub contexts can leave the default no-op.
    """

    def __init__(self, config: SimConfig, tracer: Optional[TracerLike] = None):
        self.config = config
        self.sim = Simulation()
        self.tracer: Optional[TracerLike] = (
            tracer if (tracer is not None and tracer.enabled) else None
        )
        self.rng = np.random.default_rng(config.seed)
        self.metrics = MetricsRegistry(prefix="sim_")
        self.counters = SimCounters(self.metrics, config.tenancy is not None)
        #: The run's request scheduler; composed by the kernel (it needs
        #: the tenancy seam resolved first), or injected by a stub.
        self.scheduler: RequestScheduler = RequestScheduler(
            amortize_batch=config.amortize_batch
        )
        #: "Work may be assignable" hook — replaced during composition by
        #: :meth:`repro.core.sim.dispatch.DispatchSubsystem.request_dispatch`.
        self.request_dispatch: Thunk = lambda: None

    @property
    def now(self) -> float:
        """The engine clock."""
        return self.sim.now


#: Histogram is re-exported for subsystem type annotations.
__all__ = ["SimContext", "SimCounters", "Histogram"]
