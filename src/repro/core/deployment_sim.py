"""Multi-library deployment simulation (Section 6).

"When placing platters from the same platter-set in a multi-library
deployment, we spread them out within and across libraries as much as
possible ... because we assign files that we expect to read together to the
same platter-set, spreading them across libraries leads to better
load-balancing and higher utilization of libraries at read-time."

:class:`DeploymentSimulation` runs N independent
:class:`~repro.core.sim.kernel.SimKernel` instances (libraries share no
drives or shuttles) and routes a read trace to them under one of two
placement strategies:

* ``spread`` — platter-sets are striped across libraries, so correlated
  requests (files read together) fan out over all libraries;
* ``packed`` — each platter-set lives wholly inside one library, so a
  correlated burst lands on a single library.

The paper's claim falls out as the tail-completion gap between the two
under account-correlated traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workload.traces import ReadRequest, ReadTrace
from .metrics import CompletionStats, SimulationReport
from .sim import SimConfig, SimKernel


@dataclass(frozen=True)
class DeploymentConfig:
    """A deployment of independent libraries."""

    num_libraries: int = 3
    library: SimConfig = field(default_factory=SimConfig)
    placement: str = "spread"  # "spread" | "packed"

    def __post_init__(self) -> None:
        if self.num_libraries < 1:
            raise ValueError("need at least one library")
        if self.placement not in ("spread", "packed"):
            raise ValueError(f"unknown placement {self.placement!r}")


@dataclass
class DeploymentReport:
    """Aggregate + per-library results."""

    completions: CompletionStats
    per_library: List[SimulationReport]

    @property
    def library_load_imbalance(self) -> float:
        """max/mean requests served across libraries (1.0 = perfect)."""
        counts = [r.requests_completed for r in self.per_library]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean


class DeploymentSimulation:
    """N libraries served as one archival deployment."""

    def __init__(self, config: Optional[DeploymentConfig] = None):
        self.config = config or DeploymentConfig()
        cfg = self.config
        self.libraries = [
            SimKernel(replace(cfg.library, seed=cfg.library.seed + i))
            for i in range(cfg.num_libraries)
        ]
        self.rng = np.random.default_rng(cfg.library.seed)

    def route_trace(
        self,
        trace: ReadTrace,
        measure_start: float,
        measure_end: float,
        correlation_groups: int = 50,
        group_skew: float = 1.5,
    ) -> None:
        """Split the trace across libraries under the placement strategy.

        Requests are clustered into ``correlation_groups`` read-together
        groups (platter-sets); group popularity is Zipf(``group_skew``), so
        hot groups exist — exactly the correlated traffic the paper's
        spreading argument is about. Under ``spread`` a group's requests
        stripe round-robin over libraries; under ``packed`` each group maps
        to one library.
        """
        cfg = self.config
        per_library: List[List[ReadRequest]] = [[] for _ in self.libraries]
        counters: Dict[int, int] = {}
        ranks = np.arange(1, correlation_groups + 1, dtype=np.float64)
        weights = ranks**-group_skew
        weights /= weights.sum()
        for request in trace:
            group = int(self.rng.choice(correlation_groups, p=weights))
            if cfg.placement == "packed":
                library = group % cfg.num_libraries
            else:  # spread: stripe the group's members over libraries
                position = counters.get(group, 0)
                counters[group] = position + 1
                library = (group + position) % cfg.num_libraries
            per_library[library].append(request)
        for library, requests in zip(self.libraries, per_library):
            library.lifecycle.assign_trace(
                ReadTrace(requests), measure_start, measure_end
            )

    def run(self) -> DeploymentReport:
        """Run every library to quiescence and pool their measured completions.

        ``completions`` covers the measured top-level requests of all
        libraries; ``per_library`` holds each library's report, in order.
        """
        reports = [library.run() for library in self.libraries]
        times: List[float] = []
        for library in self.libraries:
            times.extend(
                r.completion_time for r in library.measured_completed()
            )
        return DeploymentReport(
            completions=CompletionStats.from_times(times),
            per_library=reports,
        )
