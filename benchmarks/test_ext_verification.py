"""Extension bench: verification latency in the drives' idle time.

Section 3.1: "the verification workload simply utilizes what would
otherwise be idle read drives ... Customer traffic is prioritized over
verification." This bench submits a stream of freshly written 2 TB platters
into the running digital twin and measures how long each takes to fully
verify while customer reads preempt the drives — under each of the three
evaluation workloads.
"""

import pytest

from repro.core.sim import SimConfig, SimKernel
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import ALL_PROFILES

from conftest import SCALE, hours, print_series


PLATTER_BYTES = 2e12
PLATTER_INTERVAL_S = 1200.0  # one freshly written platter every 20 minutes


def _run(profile, seed=18):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = SCALE.trace_for(profile, seed=seed, stream=70 + seed)
    kernel = SimKernel(
        SimConfig(num_platters=SCALE.num_platters, seed=seed)
    )
    kernel.lifecycle.assign_trace(trace, start, end)
    horizon = end + 3600.0
    t = 0.0
    while t < end:
        kernel.verification.submit_verification(PLATTER_BYTES, time=t)
        t += PLATTER_INTERVAL_S
    kernel.ctx.sim.schedule(horizon, lambda: None)  # let the tail of the queue drain
    report = kernel.run()
    return kernel, report


def test_verification_latency(once):
    def experiment():
        return {profile.name: _run(profile) for profile in ALL_PROFILES}

    results = once(experiment)
    rows = []
    for name, (kernel, report) in results.items():
        latencies = kernel.verification.verify_latencies
        worst = max(latencies) if latencies else float("nan")
        rows.append(
            f"{name:8s}: {len(latencies):3d} platters verified   "
            f"worst latency {hours(worst):5.2f} h   "
            f"final backlog {kernel.verification.backlog_bytes / 1e12:5.2f} TB   "
            f"drive verify share {report.drive_utilization.verify_fraction * 100:4.1f}%"
        )
    print_series(
        "Extension: verification latency in idle drive time", "workload", rows
    )
    for name, (kernel, report) in results.items():
        # The queue keeps up: platters verify, the backlog stays bounded.
        assert len(kernel.verification.verify_latencies) > 0, name
        assert kernel.verification.backlog_bytes < 3 * PLATTER_BYTES, name
        # Verification never starves customer reads.
        assert report.requests_completed == report.requests_submitted, name
    # Busier read workloads verify slower (preemption is real).
    typical_worst = max(results["Typical"][0].verification.verify_latencies)
    volume_worst = max(results["Volume"][0].verification.verify_latencies)
    assert volume_worst >= typical_worst * 0.8
