"""Integration tests for the archival service front end."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.codec import SectorDecodeResult
from repro.service.frontend import (
    ArchiveService,
    FileTooLargeError,
    ServiceConfig,
    _keystream,
    decrypt,
    encrypt,
)


_ERASURE = SectorDecodeResult(None, False, False, 50)

_GEOMETRY = ServiceConfig().geometry
_S = _GEOMETRY.sector_payload_bytes
_P = _GEOMETRY.platter_payload_bytes
#: file sizes at the sector (s) and platter (P) payload boundaries.
BOUNDARY_SIZES = {
    "empty": 0, "one": 1, "s-1": _S - 1, "s": _S, "s+1": _S + 1, "2s": 2 * _S,
    "P-1": _P - 1, "P": _P,
}
#: drawn file contents: a Hypothesis-chosen head, then seeded random bytes
#: (a whole platter is too large to draw byte by byte).
_contents = st.tuples(st.binary(max_size=64), st.integers(0, 2**32 - 1))


def _fill(size, contents):
    head, seed = contents
    return (head + np.random.default_rng(seed).bytes(size))[:size]


@pytest.fixture(scope="module")
def service():
    return ArchiveService()


class TestEncryption:
    def test_roundtrip(self):
        key = b"k" * 32
        data = b"the quick brown fox"
        assert decrypt(key, encrypt(key, data)) == data

    def test_different_keys_differ(self):
        data = b"same plaintext"
        assert encrypt(b"a" * 32, data) != encrypt(b"b" * 32, data)

    def test_ciphertext_not_plaintext(self):
        key = b"k" * 32
        assert encrypt(key, b"secret bytes!") != b"secret bytes!"

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 65_536, 72_000])
    def test_keystream_is_sha256_counter_mode(self, length):
        key = bytes(range(32))
        blocks = b"".join(
            hashlib.sha256(key + counter.to_bytes(8, "little")).digest()
            for counter in range(length // 32 + 1)
        )
        assert _keystream(key, length) == blocks[:length]

    @pytest.mark.parametrize("data", [b"", b"x", b"odd-length payload!", bytes(range(255))])
    def test_roundtrip_empty_and_odd_lengths(self, data):
        key = b"q" * 32
        ciphertext = encrypt(key, data)
        assert isinstance(ciphertext, bytes) and len(ciphertext) == len(data)
        assert decrypt(key, ciphertext) == data


class TestPutGet:
    def test_roundtrip_small_file(self, service):
        data = b"hello archival world"
        service.put("t/small", data)
        assert service.get("t/small") == data

    def test_roundtrip_binary(self, service):
        data = np.random.default_rng(1).integers(0, 256, 700, dtype=np.uint8).tobytes()
        service.put("t/binary", data)
        assert service.get("t/binary") == data

    def test_multiple_files(self, service):
        for i in range(3):
            service.put(f"t/multi{i}", f"file number {i}".encode())
        for i in range(3):
            assert service.get(f"t/multi{i}") == f"file number {i}".encode()

    def test_overwrite_creates_version(self, service):
        service.put("t/ver", b"version zero")
        service.put("t/ver", b"version one")
        assert service.get("t/ver") == b"version one"
        assert service.get("t/ver", version=0) == b"version zero"

    def test_unknown_file(self, service):
        with pytest.raises(KeyError):
            service.get("t/ghost")

    def test_staging_released_after_verification(self, service):
        service.put("t/staged", b"data")
        assert not service.staging.contains("t/staged")

    def test_platters_sealed_after_put(self, service):
        service.put("t/sealed", b"data")
        location = service.metadata.locate("t/sealed")
        assert service._platters[location.platter_id].sealed


class TestOversizePut:
    def test_refused_put_leaves_no_state(self):
        service = ArchiveService()
        service.put("big/neighbour", b"fits")
        capacity = service.config.geometry.platter_payload_bytes
        staged, platters = service.staging.count, len(service._platters)
        written = service.write_drive.stats.sectors_written
        with pytest.raises(FileTooLargeError):
            service.put("big/file", b"\x01" * (capacity + 1))
        assert service.staging.count == staged
        assert not service.staging.contains("big/file")
        assert len(service._platters) == platters
        assert service.write_drive.loaded_platters() == []
        assert service.write_drive.stats.sectors_written == written
        with pytest.raises(KeyError):
            service.metadata.locate("big/file")

    def test_is_a_value_error_and_retry_fits(self):
        service = ArchiveService()
        capacity = service.config.geometry.platter_payload_bytes
        for _ in range(2):  # the refused file is not left staged
            with pytest.raises(ValueError, match="exceeds"):
                service.put("big/retry", b"\x02" * (capacity + 100))
        service.put("big/retry", b"smaller now")
        assert service.get("big/retry") == b"smaller now"

    def test_exactly_one_platter_fits(self):
        service = ArchiveService()
        capacity = service.config.geometry.platter_payload_bytes
        data = np.random.default_rng(3).bytes(capacity)
        location = service.put("big/full", data)
        assert location.size_bytes == capacity


class TestBoundarySizes:
    """Put/get at sector and platter payload boundaries, with drawn bytes."""

    @pytest.mark.parametrize(
        "size", list(BOUNDARY_SIZES.values()), ids=list(BOUNDARY_SIZES)
    )
    @settings(max_examples=3, deadline=None)
    @given(contents=_contents, key_seed=st.integers(0, 2**16))
    def test_round_trip_is_byte_exact(self, size, contents, key_seed):
        service = ArchiveService(ServiceConfig(key_seed=key_seed))
        data = _fill(size, contents)
        location = service.put("edge/file", data)
        assert location.size_bytes == size
        assert service.get("edge/file") == data
        assert service.staging.count == 0

    @settings(max_examples=3, deadline=None)
    @given(contents=_contents)
    def test_one_byte_past_a_platter_is_refused(self, contents):
        service = ArchiveService()
        with pytest.raises(FileTooLargeError):
            service.put("edge/over", _fill(_P + 1, contents))
        assert service.write_drive.loaded_platters() == []
        assert service._platters == {}
        assert service.staging.count == 0


class TestPutRollback:
    def test_codec_follows_the_geometry_sector_payload(self):
        from repro.media.geometry import PlatterGeometry
        from repro.service import ServiceConfig

        geometry = PlatterGeometry(
            tracks=64, layers=8, voxels_per_sector=800, sector_payload_bytes=96
        )
        service = ArchiveService(ServiceConfig(geometry=geometry, key_seed=1))
        assert service.codec.payload_bytes == 96
        data = np.random.default_rng(4).bytes(40_000)  # 417 sectors of 96 bytes
        service.put("rb/geometry", data)
        assert service.staging.count == 0
        assert service.get("rb/geometry") == data

    def test_failed_write_leaves_no_state(self, monkeypatch):
        service = ArchiveService()
        service.put("rb/neighbour", b"fits")
        platters = dict(service._platters)

        def broken_write(*_args, **_kwargs):
            raise ValueError("laser fault")

        monkeypatch.setattr(service.write_drive, "write_file_sectors", broken_write)
        with pytest.raises(ValueError, match="laser fault"):
            service.put("rb/file", b"never written")
        assert service.staging.count == 0
        assert service.write_drive.loaded_platters() == []
        assert service._platters == platters
        with pytest.raises(KeyError):
            service.metadata.locate("rb/file")
        monkeypatch.undo()
        service.put("rb/file", b"written now")
        assert service.get("rb/file") == b"written now"

    def test_verification_failure_keeps_the_file_staged(self, monkeypatch):
        service = ArchiveService()
        monkeypatch.setattr(service.codec, "decode_llrs", lambda *_a, **_k: _ERASURE)
        with pytest.raises(RuntimeError, match="remains staged"):
            service.put("rb/unverified", b"kept for a rewrite")
        assert service.staging.contains("rb/unverified")


class TestDeleteAndRecycle:
    def test_delete_makes_unreadable(self, service):
        service.put("t/doomed", b"to be shredded")
        service.delete("t/doomed")
        with pytest.raises(KeyError):
            service.get("t/doomed")

    def test_recycle_only_dead_platters(self, service):
        service.put("t/alive", b"still live")
        location = service.metadata.locate("t/alive")
        with pytest.raises(RuntimeError):
            service.recycle(location.platter_id)

    def test_recycle_after_delete(self):
        service = ArchiveService()
        service.put("r/one", b"short lived")
        location = service.metadata.locate("r/one")
        service.delete("r/one")
        assert location.platter_id in service.recyclable_platters()
        fresh = service.recycle(location.platter_id)
        assert fresh.is_blank


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        from repro.service import RetryPolicy

        policy = RetryPolicy(backoff_base_seconds=0.5, backoff_cap_seconds=8.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(10) == 8.0  # capped

    def test_validation(self):
        from repro.service import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_seconds=0.0)


class TestMetadataRetry:
    def test_get_rides_through_transient_outage(self):
        service = ArchiveService()
        service.put("m/file", b"survives failover")
        service.metadata.fail_for(2)
        assert service.get("m/file") == b"survives failover"
        assert service.retry_stats.metadata_retries >= 2
        assert service.retry_stats.backoff_seconds > 0.0
        assert service.metadata.available

    def test_simulated_waits_advance_service_clock(self):
        service = ArchiveService()
        service.put("m/clock", b"x")
        before = service._clock
        service.metadata.fail_for(1)
        service.get("m/clock")
        assert service._clock > before

    def test_deadline_exhaustion_raises(self):
        from repro.service import RequestDeadlineExceeded, RetryPolicy, ServiceConfig

        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=3, deadline_seconds=60.0)
        )
        service = ArchiveService(config)
        service.put("m/doomed", b"y")
        service.metadata.set_available(False)  # no heal scheduled
        with pytest.raises(RequestDeadlineExceeded):
            service.get("m/doomed")
        assert service.retry_stats.metadata_failures == 1

    def test_tight_deadline_gives_up_before_attempt_budget(self):
        from repro.service import RequestDeadlineExceeded, RetryPolicy, ServiceConfig

        config = ServiceConfig(
            retry=RetryPolicy(
                max_attempts=100,
                backoff_base_seconds=4.0,
                backoff_cap_seconds=64.0,
                deadline_seconds=10.0,
            )
        )
        service = ArchiveService(config)
        service.put("m/tight", b"z")
        service.metadata.fail_for(1000)
        with pytest.raises(RequestDeadlineExceeded):
            service.get("m/tight")
        # Far fewer than 100 attempts fit under a 10 s deadline.
        assert service.retry_stats.metadata_retries < 10


class TestDecodeLadder:
    def test_clean_channel_never_climbs_ladder(self):
        service = ArchiveService()
        service.put("l/clean", b"no noise here")
        service.get("l/clean")
        assert service.retry_stats.sector_rereads == 0
        assert service.retry_stats.deep_decodes == 0
        assert service.retry_stats.unrecovered_sectors == 0

    def test_noisy_channel_rereads_then_recovers(self):
        from repro.media.channel import ChannelModel, ReadChannel
        from repro.media.read_drive import ReadDriveModel
        from repro.service import ServiceConfig

        # key_seed pins the per-file encryption key: the ciphertext (and so
        # the borderline decode outcome under the noisy channel below) is
        # identical every run instead of a secrets.token_bytes coin flip.
        service = ArchiveService(ServiceConfig(key_seed=0))
        service.put("l/noisy", b"recoverable with retries" * 4)
        # Degrade the channel after write: raise the noise until the first
        # decode sometimes fails but a re-read or deep decode clears it.
        noisy = ReadChannel(ChannelModel(sensor_noise_sigma=0.34), seed=3)
        service.read_drive = ReadDriveModel(channel=noisy, seed=3)
        data = service.get("l/noisy")
        assert data == b"recoverable with retries" * 4
        assert (
            service.retry_stats.sector_rereads > 0
            or service.retry_stats.deep_decodes > 0
        )

    def test_key_seed_makes_keys_reproducible(self):
        from repro.service import ServiceConfig

        def key_for(config):
            service = ArchiveService(config)
            service.put("l/key", b"pinned")
            return service.metadata.encryption_key("l/key")

        seeded = key_for(ServiceConfig(key_seed=7))
        assert seeded == key_for(ServiceConfig(key_seed=7))
        assert seeded != key_for(ServiceConfig(key_seed=8))
        # Default stays production-random: fresh entropy per service.
        assert key_for(ServiceConfig()) != key_for(ServiceConfig())

    def test_destroyed_channel_escalates_to_network_coding(self):
        from repro.media.channel import ChannelModel, ReadChannel
        from repro.media.read_drive import ReadDriveModel

        service = ArchiveService()
        service.put("l/burnt", b"beyond in-place recovery")
        burnt = ReadChannel(ChannelModel(sensor_noise_sigma=3.0), seed=23)
        service.read_drive = ReadDriveModel(channel=burnt, seed=23)
        with pytest.raises(IOError, match="network coding"):
            service.get("l/burnt")
        assert service.retry_stats.unrecovered_sectors >= 1


class TestBackoffJitter:
    def test_default_schedule_is_byte_exact_legacy(self):
        from repro.service import RetryPolicy

        policy = RetryPolicy(backoff_base_seconds=0.5, backoff_cap_seconds=8.0)
        # jitter_fraction defaults to 0.0: the capped exponential is the
        # exact historical schedule, so committed baselines cannot move.
        assert policy.jitter_fraction == 0.0
        assert [policy.backoff(n) for n in range(1, 6)] == [
            0.5, 1.0, 2.0, 4.0, 8.0,
        ]
        assert policy.backoff(3, token=99) == 2.0  # token ignored when off

    def test_jitter_is_bounded_and_deterministic(self):
        from repro.service import RetryPolicy

        policy = RetryPolicy(
            backoff_base_seconds=4.0,
            backoff_cap_seconds=64.0,
            jitter_fraction=0.5,
            jitter_seed=13,
        )
        for attempt in range(1, 8):
            base = min(64.0, 4.0 * 2 ** (attempt - 1))
            delay = policy.backoff(attempt, token=attempt)
            assert base * 0.5 <= delay <= base  # shaved, never lengthened
            assert delay == policy.backoff(attempt, token=attempt)  # seeded

    def test_jitter_decorrelates_tokens_and_seeds(self):
        from repro.service import RetryPolicy

        policy = RetryPolicy(jitter_fraction=0.5, jitter_seed=1)
        other = RetryPolicy(jitter_fraction=0.5, jitter_seed=2)
        assert policy.backoff(3, token=0) != policy.backoff(3, token=1)
        assert policy.backoff(3, token=0) != other.backoff(3, token=0)

    def test_jitter_fraction_validation(self):
        from repro.service import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=-0.1)


class TestRetryStatsExport:
    def test_as_dict_is_stable_keyed(self):
        from repro.service.frontend import ServiceRetryStats

        payload = ServiceRetryStats(metadata_retries=3).as_dict()
        assert list(payload) == sorted(payload)
        assert payload["metadata_retries"] == 3

    def test_publish_renders_prometheus_counters(self):
        from repro.core.metrics import MetricsRegistry
        from repro.service.frontend import ServiceRetryStats

        stats = ServiceRetryStats(
            metadata_retries=4,
            metadata_failures=1,
            sector_rereads=2,
            deep_decodes=1,
            unrecovered_sectors=0,
            backoff_seconds=12.5,
            admission_rejections=3,
        )
        registry = MetricsRegistry(prefix="service_")
        stats.publish(registry)
        text = registry.to_prometheus()
        assert "# TYPE service_metadata_retries_total counter" in text
        assert "service_metadata_retries_total 4" in text
        assert "service_backoff_seconds_total 12.5" in text
        assert "service_admission_rejections_total 3" in text
        assert registry.value("metadata_failures_total") == 1.0

    def test_service_metrics_registry_snapshot(self):
        service = ArchiveService()
        service.put("x/exported", b"payload")
        service.metadata.fail_for(2)
        service.get("x/exported")
        registry = service.metrics_registry()
        assert registry.value("metadata_retries_total") >= 2.0
        assert "service_metadata_retries_total" in registry.to_prometheus()
