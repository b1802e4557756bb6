"""Property-based tests on end-to-end simulation invariants.

Hypothesis drives small random scenarios through the full digital twin and
checks the invariants that must hold regardless of configuration: every
request completes exactly once, completion never precedes arrival, drive
time accounting conserves, and platters always return to their fixed homes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sim import SimConfig, SimKernel
from repro.workload.generator import WorkloadGenerator


scenario = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["silica", "sp", "ns"]),
        "num_shuttles": st.sampled_from([4, 10, 20]),
        "num_drives": st.sampled_from([4, 20]),
        "num_platters": st.sampled_from([50, 300]),
        "rate": st.floats(min_value=0.05, max_value=1.0),
        "seed": st.integers(min_value=0, max_value=10_000),
        "unavailable": st.sampled_from([0.0, 0.1]),
    }
)


def _run_scenario(params):
    generator = WorkloadGenerator(seed=params["seed"])
    trace, start, end = generator.interval_trace(
        params["rate"],
        interval_hours=0.15,
        warmup_hours=0.05,
        cooldown_hours=0.05,
        fixed_size=8_000_000,
        stream=params["seed"],
    )
    config = SimConfig(
        policy=params["policy"],
        num_shuttles=params["num_shuttles"],
        num_drives=params["num_drives"],
        num_platters=params["num_platters"],
        unavailable_fraction=params["unavailable"],
        seed=params["seed"],
    )
    kernel = SimKernel(config)
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    return kernel, report


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario)
def test_every_request_completes_exactly_once(params):
    kernel, report = _run_scenario(params)
    assert report.requests_completed == report.requests_submitted
    for request in kernel.lifecycle.all_requests:
        assert request.done, request
        assert request.completion >= request.arrival


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario)
def test_drive_accounting_conserves(params):
    kernel, report = _run_scenario(params)
    total = report.simulated_seconds
    for util in report.per_drive_utilization:
        busy = util.read_seconds + util.verify_seconds + util.switch_seconds
        assert busy == pytest.approx(total, rel=1e-6)
        assert util.read_seconds >= 0
        assert util.switch_seconds >= 0


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario)
def test_platters_end_at_fixed_home_slots(params):
    """Section 6: platter locations are fixed — after the run drains, every
    available platter sits in its original slot."""
    kernel, _report = _run_scenario(params)
    if params["policy"] == "ns":
        return  # NS never physically moves platters
    for platter, home in kernel.robotics.home_slot.items():
        located = kernel.robotics.layout.locate(platter)
        assert located == home, (platter, located, home)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario)
def test_bytes_read_cover_all_tracks(params):
    """Bytes scanned equal the sum over served (sub-)requests' tracks."""
    kernel, report = _run_scenario(params)
    leaf_requests = [r for r in kernel.lifecycle.all_requests if not r.children]
    expected = sum(r.num_tracks for r in leaf_requests) * kernel.config.track_read_bytes
    assert report.bytes_read == pytest.approx(expected, rel=1e-9)
