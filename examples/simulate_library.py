#!/usr/bin/env python
"""Drive the digital twin: a Silica library serving cloud archival reads.

Reproduces the Section 7 methodology at laptop scale: the three workload
profiles (Typical / IOPS / Volume), 20 read drives at 60 MB/s, 20 shuttles
with partitioned traffic management, verification soaking up idle drive
time, and tail (p99.9) completion time against the 15-hour SLO. Also shows
the two baselines (SP free-roaming shuttles, NS infinitely fast delivery).

Run:  python examples/simulate_library.py
"""

from repro.core import SimConfig, SimKernel
from repro.core.metrics import SLO_SECONDS
from repro.workload import ALL_PROFILES, WorkloadGenerator


def run_once(profile, policy="silica", seed=0, **overrides):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.interval_trace(
        profile.mean_rate_per_second * 0.7,
        interval_hours=1.0,
        warmup_hours=0.25,
        cooldown_hours=0.25,
        size_model=profile.size_model,
        burstiness=profile.burstiness,
        stream=30,
    )
    settings = dict(
        num_drives=20, num_shuttles=20, policy=policy, num_platters=1200, seed=seed
    )
    settings.update(overrides)
    config = SimConfig(**settings)
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    return kernel.run()


def main() -> None:
    print(f"SLO: {SLO_SECONDS / 3600:.0f} h to last byte\n")
    print("== the three evaluation workloads (Silica policy) ==")
    for profile in ALL_PROFILES:
        report = run_once(profile)
        completion = report.completions
        utilization = report.drive_utilization
        slo = "within SLO" if completion.within_slo() else "SLO MISS"
        print(
            f"  {profile.name:8s}: {completion.count:5d} reads, "
            f"tail {completion.tail_hours:5.2f} h ({slo}), "
            f"drive util {utilization.utilization * 100:5.1f}% "
            f"(read {utilization.read_fraction * 100:4.1f}% / "
            f"verify {utilization.verify_fraction * 100:4.1f}%)"
        )

    print("\n== policy comparison on the IOPS workload ==")
    iops = ALL_PROFILES[1]
    for policy in ("silica", "sp", "ns"):
        report = run_once(iops, policy=policy)
        print(
            f"  {policy:6s}: tail {report.completions.tail_hours:5.2f} h, "
            f"congestion {report.shuttles.congestion_overhead * 100:5.1f}%, "
            f"energy/platter-op {report.shuttles.energy_per_platter_op:6.1f} J"
        )

    print("\n== degraded mode: 10% of platters unavailable ==")
    report = run_once(iops, unavailable_fraction=0.10, num_platters=1900)
    print(
        f"  tail {report.completions.tail_hours:5.2f} h with 16x read "
        f"amplification on affected reads "
        f"({'within SLO' if report.completions.within_slo() else 'SLO MISS'})"
    )


if __name__ == "__main__":
    main()
