"""Tests for the multi-seed replication utility."""

import numpy as np
import pytest

from repro.core.replication import ReplicatedMetric, replicate, replicate_tail_hours
from repro.workload.profiles import TYPICAL


class TestReplicatedMetric:
    def test_mean_and_std(self):
        metric = ReplicatedMetric((1.0, 2.0, 3.0), confidence=0.95)
        assert metric.mean == pytest.approx(2.0)
        assert metric.std == pytest.approx(1.0)
        assert metric.n == 3

    def test_interval_contains_mean(self):
        metric = ReplicatedMetric((4.0, 5.0, 6.0, 5.5), confidence=0.95)
        low, high = metric.interval
        assert low < metric.mean < high

    def test_single_value_zero_width(self):
        metric = ReplicatedMetric((7.0,), confidence=0.95)
        assert metric.half_width == 0.0

    def test_higher_confidence_wider_interval(self):
        values = (1.0, 2.0, 3.0, 2.5, 1.5)
        narrow = ReplicatedMetric(values, confidence=0.80)
        wide = ReplicatedMetric(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_half_width_pinned(self):
        """Exact value of the Student-t interval; any drift is a number change."""
        metric = ReplicatedMetric((1.0, 2.0, 4.0), 0.95)
        assert metric.half_width == 3.7945830335967594

    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            ReplicatedMetric((1.0, 2.0, 4.0), confidence)

    def test_str_format(self):
        metric = ReplicatedMetric((1.0, 2.0), confidence=0.95)
        assert "n=2" in str(metric)


class TestReplicate:
    def test_runs_each_seed_once(self):
        seen = []
        replicate(lambda seed: seen.append(seed) or float(seed), [3, 1, 4])
        assert seen == [3, 1, 4]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: 0.0, [])

    @pytest.mark.parametrize("confidence", [1.5, 1.0, -0.2])
    def test_bad_confidence_rejected_before_any_run(self, confidence):
        seen = []
        with pytest.raises(ValueError, match="confidence"):
            replicate(lambda seed: seen.append(seed) or 0.0, [1, 2], confidence)
        assert seen == []

    def test_deterministic_run_zero_spread(self):
        metric = replicate(lambda s: 42.0, [1, 2, 3])
        assert metric.std == 0.0
        assert metric.mean == 42.0


class TestReplicatedSimulation:
    def test_tail_hours_replication(self):
        metric = replicate_tail_hours(
            TYPICAL,
            seeds=[1, 2, 3],
            rate_factor=0.5,
            interval_hours=0.3,
            num_platters=300,
        )
        assert metric.n == 3
        assert metric.mean > 0
        # Mechanical sampling differs across seeds: some spread exists.
        assert metric.std >= 0
        low, high = metric.interval
        assert low <= metric.mean <= high
