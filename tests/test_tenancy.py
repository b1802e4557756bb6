"""Tests for the multi-tenant QoS subsystem (repro.tenancy)."""

import pytest

from repro.core.metrics import jain_index, QoSMetrics
from repro.core.requests import SimRequest
from repro.core.scheduler import ArrivalOrderPolicy
from repro.core.sim import SimConfig, SimKernel
from repro.observability.tracer import Tracer
from repro.tenancy import (
    BULK,
    DEFAULT_CLASSES,
    EXPEDITED,
    STANDARD,
    AdmissionController,
    AdmissionRejected,
    DeadlineAwareFetchPolicy,
    QuotaSpec,
    SLOClass,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    policy_for,
    skewed_mix,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import ReadTrace


class TestModel:
    def test_class_validation(self):
        with pytest.raises(ValueError):
            SLOClass("bad", deadline_seconds=0.0)
        with pytest.raises(ValueError):
            SLOClass("bad", deadline_seconds=3600.0, weight=0.0)

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            QuotaSpec(bytes_per_second=-1.0, burst_bytes=0.0)

    def test_registry_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TenantRegistry(tenants=(TenantSpec("a"), TenantSpec("a")))

    def test_registry_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            TenantRegistry(tenants=(TenantSpec("a", slo_class="platinum"),))

    def test_registry_rejects_bad_aging(self):
        with pytest.raises(ValueError):
            TenantRegistry(aging=1.5)

    def test_unknown_tenant_gets_default_class(self):
        registry = TenantRegistry(tenants=(TenantSpec("a", slo_class="bulk"),))
        assert registry.class_of("a") is BULK
        assert registry.class_of("stranger") is STANDARD
        assert registry.class_of("") is STANDARD

    def test_deadline_for_is_arrival_plus_target(self):
        registry = TenantRegistry(
            tenants=(TenantSpec("vip", slo_class="expedited"),)
        )
        assert registry.deadline_for("vip", 100.0) == pytest.approx(
            100.0 + EXPEDITED.deadline_seconds
        )

    def test_skewed_mix_shape(self):
        registry = skewed_mix(num_tenants=5, seed=3, total_rate_per_second=2.0)
        assert len(registry.tenants) == 5
        hot = registry.tenants[0]
        assert hot.slo_class == "bulk"
        assert hot.rate_per_second == pytest.approx(2.0 * 0.75)
        total = sum(t.rate_per_second for t in registry.tenants)
        assert total == pytest.approx(2.0)
        # Cold tenants alternate expedited / standard.
        assert registry.tenants[1].slo_class == "expedited"
        assert registry.tenants[2].slo_class == "standard"

    def test_skewed_mix_is_deterministic(self):
        assert skewed_mix(seed=7) == skewed_mix(seed=7)

    def test_skewed_mix_zero_quota_tenant(self):
        registry = skewed_mix(num_tenants=3, zero_quota_tenant=True)
        suspended = registry.tenants[-1]
        assert suspended.quota == QuotaSpec(0.0, 0.0)

    def test_skewed_mix_needs_two_tenants(self):
        with pytest.raises(ValueError):
            skewed_mix(num_tenants=1)


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(QuotaSpec(bytes_per_second=10.0, burst_bytes=100.0))
        assert bucket.try_admit(100, now=0.0)
        assert not bucket.try_admit(1, now=0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(QuotaSpec(bytes_per_second=10.0, burst_bytes=100.0))
        assert bucket.try_admit(100, now=0.0)
        assert not bucket.try_admit(50, now=1.0)  # only 10 tokens back
        assert bucket.try_admit(50, now=5.0)  # 50 tokens after 5 s

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(QuotaSpec(bytes_per_second=10.0, burst_bytes=100.0))
        assert not bucket.try_admit(101, now=1e9)  # level never exceeds depth

    def test_time_never_flows_backwards(self):
        bucket = TokenBucket(QuotaSpec(bytes_per_second=10.0, burst_bytes=100.0))
        assert bucket.try_admit(100, now=10.0)
        assert not bucket.try_admit(10, now=5.0)  # earlier ts refills nothing

    def test_oversized_request_always_rejected(self):
        bucket = TokenBucket(QuotaSpec(bytes_per_second=1e9, burst_bytes=100.0))
        assert not bucket.try_admit(101, now=1e6)


class TestAdmissionController:
    def _registry(self):
        return TenantRegistry(
            tenants=(
                TenantSpec("free"),  # no quota -> always admitted
                TenantSpec(
                    "metered", quota=QuotaSpec(bytes_per_second=0.0, burst_bytes=100.0)
                ),
                TenantSpec("suspended", quota=QuotaSpec(0.0, 0.0)),
            )
        )

    def test_unquotad_and_unknown_tenants_always_admitted(self):
        controller = AdmissionController(self._registry())
        assert controller.admit("free", 10**9, now=0.0)
        assert controller.admit("stranger", 10**9, now=0.0)
        assert controller.total_rejected() == 0

    def test_accounting_both_ways(self):
        controller = AdmissionController(self._registry())
        assert controller.admit("metered", 60, now=0.0)
        assert not controller.admit("metered", 60, now=0.0)
        stats = controller.stats_dict()["metered"]
        assert stats == {
            "admitted": 1,
            "rejected": 1,
            "admitted_bytes": 60,
            "rejected_bytes": 60,
        }

    def test_zero_quota_tenant_rejects_everything(self):
        """Satellite edge case: a suspended (0/0 quota) tenant."""
        controller = AdmissionController(self._registry())
        for i in range(5):
            assert not controller.admit("suspended", 1, now=float(i * 1000))
        stats = controller.stats_dict()["suspended"]
        assert stats["admitted"] == 0
        assert stats["rejected"] == 5
        assert stats["rejected_bytes"] == 5
        assert controller.total_rejected() == 5

    def test_stats_dict_sorted_by_tenant(self):
        controller = AdmissionController(self._registry())
        controller.admit("metered", 1, now=0.0)
        controller.admit("free", 1, now=0.0)
        assert list(controller.stats_dict()) == ["free", "metered"]


class TestDeadlinePolicy:
    def _registry(self, aging=0.25):
        return TenantRegistry(
            tenants=(
                TenantSpec("vip", slo_class="expedited"),
                TenantSpec("batch", slo_class="bulk"),
            ),
            aging=aging,
        )

    def _request(self, arrival, slo_class):
        return SimRequest(
            request_id=1,
            arrival=arrival,
            platter_id="P",
            size_bytes=1,
            slo_class=slo_class,
        )

    def test_expedited_outranks_earlier_bulk(self):
        policy = DeadlineAwareFetchPolicy(self._registry())
        late_vip = self._request(3600.0, "expedited")
        early_bulk = self._request(0.0, "bulk")
        assert policy.key(late_vip) < policy.key(early_bulk)

    def test_arrival_term_prevents_starvation(self):
        """A bulk request's fixed key eventually beats newer expedited ones."""
        policy = DeadlineAwareFetchPolicy(self._registry())
        bulk = self._request(0.0, "bulk")
        gap = BULK.deadline_seconds / BULK.weight  # bulk's slack budget
        much_later_vip = self._request(gap, "expedited")
        assert policy.key(bulk) < policy.key(much_later_vip)

    def test_aging_one_degenerates_to_fifo(self):
        policy = policy_for("deadline", self._registry(aging=1.0))
        fifo = ArrivalOrderPolicy()
        for arrival, slo in [(0.0, "bulk"), (9.5, "expedited"), (3.0, "")]:
            request = self._request(arrival, slo)
            assert policy.key(request) == fifo.key(request)

    def test_unknown_class_uses_default_bias(self):
        policy = DeadlineAwareFetchPolicy(self._registry())
        untagged = self._request(0.0, "")
        standard = self._request(0.0, "standard")
        assert policy.key(untagged) == policy.key(standard)

    def test_policy_for_resolution(self):
        assert isinstance(policy_for("arrival"), ArrivalOrderPolicy)
        assert isinstance(
            policy_for("deadline", self._registry()), DeadlineAwareFetchPolicy
        )
        with pytest.raises(ValueError):
            policy_for("deadline")  # needs a registry
        with pytest.raises(ValueError):
            policy_for("shortest-job-first")


class TestJainIndex:
    def test_equal_allocation_scores_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_scores_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_degenerate_inputs(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0


class TestQoSMetrics:
    def _completed(self, request_id, tenant, arrival, completion, deadline=None):
        request = SimRequest(
            request_id=request_id,
            arrival=arrival,
            platter_id="P",
            size_bytes=1,
            tenant=tenant,
            deadline=deadline,
        )
        request.completion = completion
        return request

    def test_all_requests_past_deadline(self):
        """Satellite edge case: a tenant whose every request misses."""
        registry = TenantRegistry(
            tenants=(TenantSpec("late", slo_class="expedited"),)
        )
        target = EXPEDITED.deadline_seconds
        requests = [
            self._completed(i, "late", 0.0, target * 2 + i, deadline=target)
            for i in range(4)
        ]
        qos = QoSMetrics.from_requests(requests, registry)
        row = qos.per_tenant["late"]
        assert row.deadline_misses == 4
        assert row.slo_attainment == 0.0
        assert qos.deadline_misses == 4
        assert qos.per_class["expedited"].slo_attainment == 0.0

    def test_fifo_equal_latency_unequal_slowdown(self):
        """Equal raw latency across classes is *unfair* in slowdown terms."""
        registry = TenantRegistry(
            tenants=(
                TenantSpec("vip", slo_class="expedited"),
                TenantSpec("batch", slo_class="bulk"),
            )
        )
        requests = [
            self._completed(1, "vip", 0.0, 7200.0),
            self._completed(2, "batch", 0.0, 7200.0),
        ]
        qos = QoSMetrics.from_requests(requests, registry)
        assert qos.per_tenant["vip"].mean_slowdown == pytest.approx(0.5)
        assert qos.per_tenant["batch"].mean_slowdown == pytest.approx(
            7200.0 / BULK.deadline_seconds
        )
        assert qos.jain_fairness < 1.0

    def test_rejected_only_tenant_appears(self):
        """A fully-rejected tenant shows up with zero completions."""
        registry = TenantRegistry(tenants=(TenantSpec("blocked"),))
        qos = QoSMetrics.from_requests(
            [],
            registry,
            admission_stats={
                "blocked": {
                    "admitted": 0,
                    "rejected": 7,
                    "admitted_bytes": 0,
                    "rejected_bytes": 700,
                }
            },
        )
        row = qos.per_tenant["blocked"]
        assert row.rejected == 7
        assert row.completions.count == 0
        assert qos.admission_rejections == 7

    def test_as_dict_round_trips_structure(self):
        registry = TenantRegistry(tenants=(TenantSpec("a"),))
        qos = QoSMetrics.from_requests(
            [self._completed(1, "a", 0.0, 60.0)], registry
        )
        payload = qos.as_dict()
        assert payload["per_tenant"]["a"]["slo_class"] == "standard"
        assert "degraded_completions" in payload["per_class"]["standard"]


class TestMultiTenantTrace:
    def test_deterministic_and_tagged(self):
        registry = skewed_mix(num_tenants=4, seed=2, total_rate_per_second=0.2)
        first, start, end = WorkloadGenerator(seed=9).multi_tenant_trace(
            registry, interval_hours=2.0, warmup_hours=0.5, cooldown_hours=0.5
        )
        second, _, _ = WorkloadGenerator(seed=9).multi_tenant_trace(
            registry, interval_hours=2.0, warmup_hours=0.5, cooldown_hours=0.5
        )
        assert [r.time for r in first.requests] == [r.time for r in second.requests]
        assert start == 1800.0 and end == 1800.0 + 7200.0
        tenants = {r.tenant for r in first.requests}
        assert tenants == {t.name for t in registry.tenants}
        assert all(r.account == r.tenant for r in first.requests)

    def test_hot_tenant_dominates_volume(self):
        registry = skewed_mix(num_tenants=4, seed=2, total_rate_per_second=0.5)
        trace, _, _ = WorkloadGenerator(seed=9).multi_tenant_trace(
            registry, interval_hours=2.0, warmup_hours=0.0, cooldown_hours=0.0
        )
        hot = registry.tenants[0].name
        hot_count = sum(1 for r in trace.requests if r.tenant == hot)
        assert hot_count > len(trace.requests) / 2

    def test_tenant_streams_are_independent(self):
        """Dropping a tenant leaves the other tenants' arrivals unchanged."""
        full = skewed_mix(num_tenants=4, seed=2, total_rate_per_second=0.5)
        trimmed = TenantRegistry(tenants=full.tenants[:3], aging=full.aging)
        a, _, _ = WorkloadGenerator(seed=9).multi_tenant_trace(
            full, interval_hours=1.0, warmup_hours=0.0, cooldown_hours=0.0
        )
        b, _, _ = WorkloadGenerator(seed=9).multi_tenant_trace(
            trimmed, interval_hours=1.0, warmup_hours=0.0, cooldown_hours=0.0
        )
        kept = {t.name for t in trimmed.tenants}
        a_kept = [(r.time, r.tenant) for r in a.requests if r.tenant in kept]
        b_all = [(r.time, r.tenant) for r in b.requests]
        assert a_kept == b_all


def _run_tenant_sim(registry, fetch_policy="deadline", tracer=None, seed=4):
    generator = WorkloadGenerator(seed=seed)
    trace, start, end = generator.multi_tenant_trace(
        registry,
        interval_hours=1.0,
        warmup_hours=0.25,
        cooldown_hours=0.25,
        fixed_size=10**8,
    )
    config = SimConfig(
        seed=seed,
        num_platters=200,
        num_drives=4,
        num_shuttles=4,
        fetch_policy=fetch_policy,
        tenancy=registry,
    )
    kernel = SimKernel(config, tracer=tracer)
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    return kernel, report


class TestSimulationIntegration:
    def test_report_carries_qos_block(self):
        registry = skewed_mix(num_tenants=3, seed=1, total_rate_per_second=0.3)
        _, report = _run_tenant_sim(registry)
        assert report.qos is not None
        assert set(report.qos.per_class) <= {"expedited", "standard", "bulk"}
        payload = report.as_dict()["qos"]
        assert payload["jain_fairness"] == pytest.approx(report.qos.jain_fairness)

    def test_qos_block_absent_without_tenancy(self):
        config = SimConfig(seed=1, num_platters=100)
        kernel = SimKernel(config)
        trace, start, end = WorkloadGenerator(seed=1).interval_trace(
            mean_rate_per_second=0.05,
            interval_hours=0.5,
            warmup_hours=0.1,
            cooldown_hours=0.1,
        )
        kernel.lifecycle.assign_trace(trace, start, end)
        report = kernel.run()
        assert report.qos is None
        assert report.as_dict()["qos"] is None

    def test_zero_quota_tenant_rejections_accounted(self):
        """Satellite edge case, end to end: a suspended tenant's requests

        are rejected at admission, counted in the QoS block, and traced."""
        registry = skewed_mix(
            num_tenants=3, seed=1, total_rate_per_second=0.3, zero_quota_tenant=True
        )
        suspended = registry.tenants[-1].name
        tracer = Tracer()
        kernel, report = _run_tenant_sim(registry, tracer=tracer)
        row = report.qos.per_tenant[suspended]
        assert row.rejected > 0
        assert row.admitted == 0
        assert row.completions.count == 0
        assert report.qos.admission_rejections == row.rejected
        kinds = {e.kind for e in tracer.events()}
        assert "admission.reject" in kinds
        rejects = [e for e in tracer.events() if e.kind == "admission.reject"]
        assert all(e.attrs["tenant"] == suspended for e in rejects)

    def test_deadline_policy_requires_tenancy(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, fetch_policy="deadline")
        with pytest.raises(ValueError):
            SimConfig(seed=1, fetch_policy="sjf")

    def test_matched_seed_runs_are_identical(self):
        registry = skewed_mix(num_tenants=3, seed=1, total_rate_per_second=0.3)
        _, first = _run_tenant_sim(registry)
        _, second = _run_tenant_sim(registry)
        assert first.as_dict() == second.as_dict()


class TestFrontendAdmission:
    def test_quota_rejection_raises(self):
        from repro.service.frontend import ArchiveService, ServiceConfig

        registry = TenantRegistry(
            tenants=(TenantSpec("capped", quota=QuotaSpec(0.0, 0.0)),)
        )
        service = ArchiveService(ServiceConfig(tenancy=registry))
        service.put("capped/file", b"some archived bytes")
        with pytest.raises(AdmissionRejected):
            service.get("capped/file", tenant="capped")
        assert service.retry_stats.admission_rejections == 1
        # Other tenants are unaffected.
        assert service.get("capped/file", tenant="other") == b"some archived bytes"


class TestPublicExports:
    def test_package_surface(self):
        import repro.tenancy as tenancy

        for name in (
            "AdmissionController",
            "AdmissionRejected",
            "TokenBucket",
            "SLOClass",
            "QuotaSpec",
            "TenantSpec",
            "TenantRegistry",
            "skewed_mix",
            "DeadlineAwareFetchPolicy",
            "policy_for",
        ):
            assert hasattr(tenancy, name)
        assert DEFAULT_CLASSES == (EXPEDITED, STANDARD, BULK)

    def test_trace_requests_default_anonymous(self):
        trace = ReadTrace([])
        assert trace.requests == []
