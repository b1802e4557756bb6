"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper's
evaluation (Section 7), printing the same rows/series the paper reports.
Simulation scale is reduced by default so the whole suite completes in
minutes; set ``REPRO_SCALE=full`` for paper-scale runs (12-hour measured
intervals at full request rates).

The workload definitions themselves live in :mod:`repro.bench.scenarios`
— the same module the continuous-bench registry (``python -m repro
bench``) runs — so the pytest suite and the perf trajectory can never
measure different things. This file only adapts them to pytest.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.scenarios import (  # noqa: F401  (re-exported for benchmarks)
    BenchScale,
    build_library_sim,
    scale_for,
)
from repro.workload.profiles import WorkloadProfile  # noqa: F401


FULL_SCALE = os.environ.get("REPRO_SCALE", "small") == "full"

SCALE = scale_for(FULL_SCALE)


def run_library(
    profile,
    seed: int = 0,
    skew=None,
    **config_kwargs,
):
    """One simulator run of a profile at the configured scale."""
    kernel = build_library_sim(profile, scale=SCALE, seed=seed, skew=skew, **config_kwargs)
    return kernel.run()


def hours(seconds: float) -> float:
    return seconds / 3600.0


def print_series(title: str, header: str, rows) -> None:
    """Uniform figure/table output format."""
    print(f"\n=== {title} ===")
    print(header)
    for row in rows:
        print(row)


@pytest.fixture
def once(benchmark):
    """Run the benchmarked experiment exactly once (sims are expensive)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
