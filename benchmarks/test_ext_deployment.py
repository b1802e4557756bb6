"""Extension bench: multi-library platter-set spreading (Section 6).

"Spreading them across libraries leads to better load-balancing and higher
utilization of libraries at read-time." Correlated (read-together) request
groups hammer one library when their platter-set is packed inside it;
striping each set across libraries spreads the same traffic evenly.
"""

import pytest

from repro.core.deployment_sim import DeploymentConfig, DeploymentSimulation
from repro.core.sim import SimConfig
from repro.workload.generator import WorkloadGenerator

from conftest import hours, print_series


def _run(placement, seed=19):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.interval_trace(
        3.0,
        interval_hours=0.75,
        warmup_hours=0.1,
        cooldown_hours=0.1,
        fixed_size=40_000_000,
    )
    library = SimConfig(num_platters=400, num_drives=8, num_shuttles=8, seed=seed)
    deployment = DeploymentSimulation(
        DeploymentConfig(num_libraries=3, library=library, placement=placement)
    )
    deployment.route_trace(trace, start, end, correlation_groups=30, group_skew=2.0)
    return deployment.run()


def test_spreading_balances_libraries(once):
    def experiment():
        return {p: _run(p) for p in ("spread", "packed")}

    results = once(experiment)
    rows = []
    for placement, report in results.items():
        counts = [r.requests_completed for r in report.per_library]
        rows.append(
            f"{placement:7s}: tail {hours(report.completions.tail):5.2f} h   "
            f"imbalance {report.library_load_imbalance:4.2f}   "
            f"per-library requests {counts}"
        )
    print_series(
        "Extension: platter-set spreading across libraries", "placement", rows
    )
    spread = results["spread"]
    packed = results["packed"]
    assert spread.library_load_imbalance < packed.library_load_imbalance
    assert spread.completions.tail <= packed.completions.tail
