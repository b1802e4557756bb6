"""Replication primitives: statistical replication and replica placement.

Two senses of "replication" live here, both in service of the paper's
durability story:

* **Statistical replication** — a single digital-twin run samples one
  realization of every mechanical duration and placement decision;
  experiment conclusions (Figures 5-9) should rest on replicated runs.
  :func:`replicate` runs the same experiment across seeds and summarizes
  any scalar metric with a mean and a t-distribution confidence interval.
* **Data replication** — the region-level availability argument (Section 8)
  places k replicas of every object in distinct failure domains so no
  single-domain outage can take all copies down.
  :func:`place_across_domains` is the deterministic k-of-n placement
  primitive the fleet layer builds its replica map on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workload.profiles import WorkloadProfile
from ..workload.generator import WorkloadGenerator
from .metrics import SimulationReport
from .sim import SimConfig, SimKernel


@dataclass(frozen=True)
class ReplicatedMetric:
    """Summary of one scalar across replicated runs.

    ``confidence`` is the two-sided coverage of :attr:`interval` and must
    lie strictly between 0 and 1.
    """

    values: tuple
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence!r}")

    @property
    def n(self) -> int:
        """Number of replicated values."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Sample mean of the values."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (``ddof=1``); 0 for fewer than two values."""
        if self.n < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def half_width(self) -> float:
        """Half-width of the t confidence interval around the mean."""
        if self.n < 2:
            return 0.0
        # Deferred: scipy costs ~0.6 s and ~65 MB to import, and nothing
        # on a runtime path (server, CLI commands, fleet members) needs it.
        from scipy import stats

        t = stats.t.ppf(0.5 + self.confidence / 2, df=self.n - 1)
        return float(t * self.std / np.sqrt(self.n))

    @property
    def interval(self) -> tuple:
        """``(low, high)`` bounds of the t confidence interval."""
        return (self.mean - self.half_width, self.mean + self.half_width)

    def __str__(self) -> str:
        return f"{self.mean:.3g} ± {self.half_width:.2g} (n={self.n})"


def replicate(
    run: Callable[[int], float],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> ReplicatedMetric:
    """Run ``run(seed)`` for each seed; summarize the returned scalar.

    Raises ``ValueError`` for an empty ``seeds`` or a ``confidence``
    outside (0, 1), before running anything.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if not seeds:
        raise ValueError("need at least one seed")
    values = tuple(float(run(seed)) for seed in seeds)
    return ReplicatedMetric(values, confidence)


def place_across_domains(
    object_index: int,
    domains: Sequence[str],
    replicas: int,
) -> Tuple[int, ...]:
    """k-of-n replica placement: member indices for one object.

    ``domains[i]`` names the failure domain of member ``i``. The returned
    tuple holds ``replicas`` member indices, primary first, such that no
    two chosen members share a domain. Placement is a pure function of
    ``object_index``: the primary domain rotates with the object index
    (load balance across the fleet) and replicas take the next distinct
    domains in ring order, so the map is deterministic, needs no stored
    directory, and any router can recompute it.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    if object_index < 0:
        raise ValueError("object_index must be non-negative")
    # Group members by domain, preserving first-appearance domain order.
    groups: Dict[str, List[int]] = {}
    for member, domain in enumerate(domains):
        groups.setdefault(domain, []).append(member)
    names = list(groups)
    if replicas > len(names):
        raise ValueError(
            f"cannot place {replicas} replicas across {len(names)} domain(s) "
            "without sharing a domain"
        )
    placement: List[int] = []
    first = object_index % len(names)
    for step in range(replicas):
        members = groups[names[(first + step) % len(names)]]
        placement.append(members[object_index % len(members)])
    return tuple(placement)


def replicate_tail_hours(
    profile: WorkloadProfile,
    seeds: Sequence[int],
    rate_factor: float = 0.7,
    interval_hours: float = 1.0,
    confidence: float = 0.95,
    **config_kwargs,
) -> ReplicatedMetric:
    """Replicated tail completion time (hours) for a profile + config."""

    def run(seed: int) -> float:
        generator = WorkloadGenerator(seed=seed)
        trace, start, end = generator.interval_trace(
            profile.mean_rate_per_second * rate_factor,
            interval_hours=interval_hours,
            warmup_hours=interval_hours / 6,
            cooldown_hours=interval_hours / 6,
            size_model=profile.size_model,
            burstiness=profile.burstiness,
            stream=30 + seed,
        )
        settings = dict(config_kwargs)
        settings["seed"] = seed
        kernel = SimKernel(SimConfig(**settings))
        kernel.lifecycle.assign_trace(trace, start, end)
        report = kernel.run()
        return report.completions.tail / 3600.0

    return replicate(run, seeds, confidence)
