"""The archival service front end: put / get / delete, end to end.

Ties the whole stack together the way Sections 3-6 describe:

* **put**: the file is encrypted (per-file key), staged, packed with its
  locality cluster, written to glass through the real pipeline (CRC + LDPC
  + voxel modulation), the platter is sealed (air gap) and fully verified
  with the read technology before the staged copy is dropped and the file
  is recorded in the metadata service;
* **get**: metadata lookup -> image the platter's sectors through the read
  channel -> decode (posterior -> LLR -> LDPC -> CRC) -> decrypt;
* **delete**: crypto-shredding — the key is destroyed; the glass is WORM
  and untouched. A platter with no live bytes can be recycled.

This is the integration surface the examples and integration tests drive.
It runs the *data* path for real; the *mechanical* path (shuttles, drives,
latencies) is the discrete event simulator's concern.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..layout.metadata import FileLocation, MetadataService, MetadataUnavailable
from ..layout.packing import FilePacker, PackingConfig, StagedFile
from ..media.codec import SectorCodec
from ..media.geometry import PlatterGeometry, SectorAddress, extent_addresses
from ..media.platter import Platter
from ..media.read_drive import ReadDriveModel
from ..media.write_drive import WriteDrive, WriteDriveConfig
from .staging import StagingTier
from .verification import VerificationManager


def _keystream(key: bytes, length: int) -> bytes:
    """Deterministic keystream from a 32-byte key (SHA-256 in counter mode).

    Block ``i`` is ``SHA-256(key || i as 8 little-endian bytes)``; the
    stream is the first ``length`` bytes of blocks 0, 1, 2, ...
    """
    blocks = -(-length // 32)
    return b"".join(
        hashlib.sha256(key + counter.to_bytes(8, "little")).digest()
        for counter in range(blocks)
    )[:length]


def encrypt(key: bytes, data: bytes) -> bytes:
    """XOR stream cipher (stand-in for AES-CTR; symmetric)."""
    stream = _keystream(key, len(data))
    return (
        np.frombuffer(data, dtype=np.uint8) ^ np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


decrypt = encrypt  # XOR stream cipher is its own inverse


@dataclass(frozen=True)
class RetryPolicy:
    """Read-path retry escalation (Section 4/6 degraded-mode behaviour).

    Metadata lookups retry on :class:`MetadataUnavailable` with capped
    exponential backoff under a per-request deadline (the front end's twin
    of the simulator's arrival backoff). Sector decodes climb a ladder:
    re-read the sector (fresh imaging pass — transient channel noise often
    clears), then spend a deeper LDPC iteration budget, then surrender to
    cross-platter network coding (which this single-library front end
    surfaces as an IOError).
    """

    max_attempts: int = 6
    backoff_base_seconds: float = 0.5
    backoff_cap_seconds: float = 8.0
    deadline_seconds: float = 60.0
    sector_rereads: int = 1
    ldpc_iterations: int = 50
    deep_ldpc_iterations: int = 250
    # Opt-in decorrelation: with N clients retrying the same metadata
    # outage, pure exponential backoff fires every retry in lockstep (a
    # retry storm). ``jitter_fraction`` shaves a seeded-deterministic
    # uniform slice (up to that fraction) off each delay; 0.0 (default)
    # reproduces the exact legacy schedule, so committed baselines stay
    # byte-identical.
    jitter_fraction: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")

    def backoff(self, attempt: int, token: int = 0) -> float:
        """Delay before retry ``attempt`` (1-based): capped exponential.

        ``token`` distinguishes concurrent retriers (a request counter, a
        client index); with ``jitter_fraction`` enabled, different tokens
        land on decorrelated points of the backoff curve while the same
        (seed, attempt, token) triple always yields the same delay.
        """
        delay = min(
            self.backoff_base_seconds * (2.0 ** (attempt - 1)),
            self.backoff_cap_seconds,
        )
        if self.jitter_fraction > 0.0:
            digest = hashlib.sha256(
                f"{self.jitter_seed}:{attempt}:{token}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "little") / 2**64
            delay *= 1.0 - self.jitter_fraction * unit
        return delay


class RequestDeadlineExceeded(TimeoutError):
    """A get() exhausted its retry deadline without completing."""


class FileTooLargeError(ValueError):
    """A put() whose ciphertext does not fit on one platter.

    Raised before a platter is taken or a byte encrypted; the staged copy
    is released, so a refused put leaves no staging entry or platter
    behind. Files are not split across platters here. A ``ValueError``, so
    callers that caught the write drive's refusal keep working.
    """


@dataclass
class ServiceRetryStats:
    """How often the front end climbed each rung of the retry ladder."""

    metadata_retries: int = 0
    metadata_failures: int = 0  # deadline/attempts exhausted
    sector_rereads: int = 0
    deep_decodes: int = 0
    unrecovered_sectors: int = 0
    backoff_seconds: float = 0.0
    admission_rejections: int = 0  # gets refused by tenant ingress quotas

    def as_dict(self) -> Dict[str, float]:
        """Stable-keyed snapshot (the ``service_retry`` artifact block)."""
        return {
            "admission_rejections": self.admission_rejections,
            "backoff_seconds": self.backoff_seconds,
            "deep_decodes": self.deep_decodes,
            "metadata_failures": self.metadata_failures,
            "metadata_retries": self.metadata_retries,
            "sector_rereads": self.sector_rereads,
            "unrecovered_sectors": self.unrecovered_sectors,
        }

    def publish(self, registry) -> None:
        """Mirror the ladder counters onto a metrics registry.

        ``registry`` is a :class:`repro.core.metrics.MetricsRegistry`;
        its prefix decides the metric family (``service_`` for the front
        end). Counter names follow Prometheus conventions (``_total``
        for counts, ``_seconds_total`` for accumulated time).
        """
        pairs = [
            ("metadata_retries_total", float(self.metadata_retries),
             "metadata lookups retried after a transient outage"),
            ("metadata_failures_total", float(self.metadata_failures),
             "metadata lookups that exhausted the deadline or attempts"),
            ("sector_rereads_total", float(self.sector_rereads),
             "retry-ladder rung 1: fresh imaging passes"),
            ("deep_decodes_total", float(self.deep_decodes),
             "retry-ladder rung 2: deeper LDPC iteration budgets"),
            ("unrecovered_sectors_total", float(self.unrecovered_sectors),
             "sectors the in-place ladder could not recover"),
            ("backoff_seconds_total", self.backoff_seconds,
             "simulated seconds spent waiting between retries"),
            ("admission_rejections_total", float(self.admission_rejections),
             "gets refused by tenant ingress quotas"),
        ]
        for name, value, help_text in pairs:
            registry.counter(name, help_text).inc(value)


@dataclass(frozen=True)
class ServiceConfig:
    """Front-end configuration (small-geometry defaults for fast runs)."""

    geometry: PlatterGeometry = field(
        default_factory=lambda: PlatterGeometry(
            tracks=64, layers=8, voxels_per_sector=800, sector_payload_bytes=128
        )
    )
    ldpc_rate: float = 0.8
    channel_seed: int = 11
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # None -> per-file keys from ``secrets`` (production behaviour). A seed
    # draws keys from a seeded generator instead, making the whole data
    # path — ciphertext, channel noise, decode outcomes — reproducible
    # run to run, which benchmarks and regression baselines require.
    key_seed: Optional[int] = None
    # Multi-tenant QoS: a repro.tenancy.model.TenantRegistry enables
    # token-bucket admission control on get() (quota charged against the
    # file's stored size once metadata resolves it).
    tenancy: Optional[object] = None


class ArchiveService:
    """A single-library archival storage service.

    Pass a :class:`repro.observability.Tracer` to get structured
    ``service.*`` events (put/get lifecycle, metadata retries, decode
    ladder rungs) timestamped with the front end's simulated clock.
    Tracing defaults to off and then costs one comparison per hook.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, tracer=None):
        self.config = config or ServiceConfig()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        cfg = self.config
        self.codec = SectorCodec(
            payload_bytes=cfg.geometry.sector_payload_bytes, ldpc_rate=cfg.ldpc_rate
        )
        self.write_drive = WriteDrive(codec=self.codec)
        self.read_drive = ReadDriveModel(seed=cfg.channel_seed)
        self.metadata = MetadataService()
        self.staging = StagingTier()
        self.verifier = VerificationManager(self.read_drive, self.codec)
        self.packer = FilePacker(
            PackingConfig(
                platter_capacity_bytes=cfg.geometry.platter_payload_bytes,
                shard_threshold_bytes=cfg.geometry.platter_payload_bytes // 2,
            )
        )
        self._platters: Dict[str, Platter] = {}
        self._platter_counter = 0
        self._clock = 0.0
        self.retry_stats = ServiceRetryStats()
        self._key_rng = (
            None if cfg.key_seed is None else np.random.default_rng(cfg.key_seed)
        )
        self.admission = None
        if cfg.tenancy is not None:
            from ..tenancy.admission import AdmissionController

            self.admission = AdmissionController(cfg.tenancy)

    # ------------------------------------------------------------------ #
    # put
    # ------------------------------------------------------------------ #

    def put(self, file_id: str, data: bytes, account: str = "default") -> FileLocation:
        """Store a file durably: stage -> write -> seal -> verify -> index.

        For simplicity of the demo path each put drains immediately to one
        platter; production batches a staging window through the packer.
        A file whose ciphertext exceeds one platter's payload raises
        :class:`FileTooLargeError` with nothing left staged or written, and
        any failure while writing unloads the platter and drops the staged
        copy the same way. A file that fails read-back verification stays
        staged for a later rewrite (§5) and raises ``RuntimeError``.
        """
        self._clock += 1.0
        if self.tracer is not None:
            self.tracer.emit(
                self._clock,
                "service.put",
                component="frontend",
                file_id=file_id,
                size_bytes=len(data),
            )
        staged = StagedFile(file_id, len(data), account, self._clock)
        self.staging.stage(staged)
        record = self.metadata._files.get(file_id)
        version = len(record.versions) if record else 0
        # Key management: register the (new version of the) file so a key
        # exists, then encrypt with it. A seeded service hands out keys in
        # put order, refused puts included.
        key = self._ensure_key(file_id)
        # The XOR cipher keeps the size: check the ciphertext fits before
        # taking a blank platter or encrypting anything.
        capacity = self.config.geometry.platter_payload_bytes
        if len(data) > capacity:
            self.staging.release(file_id)
            raise FileTooLargeError(
                f"file {file_id} ({len(data)} bytes) exceeds the "
                f"{capacity}-byte payload of one platter"
            )
        platter = self._new_platter()
        try:
            self.write_drive.load_blank(platter)
            ciphertext = encrypt(key, data)
            extent = self.write_drive.write_file_sectors(
                platter.platter_id, file_id, ciphertext, SectorAddress(0, 0)
            )
            sealed = self.write_drive.eject(platter.platter_id)
        except Exception:
            # Nothing reached sealed glass: drop the staged copy and the
            # half-written platter so a failed put leaves no state behind.
            self.staging.release(file_id)
            if platter.platter_id in self.write_drive.loaded_platters():
                self.write_drive.unload(platter.platter_id)
            del self._platters[platter.platter_id]
            raise
        # Verify with the READ technology before dropping the staged copy.
        self.verifier.submit(sealed)
        report = self.verifier.verify_next()
        if file_id in report.failed_files:
            # Keep in staging; rewrite later on different media (§5).
            raise RuntimeError(
                f"verification failed for {file_id}; file remains staged"
            )
        self.staging.release(file_id)
        location = FileLocation(
            file_id=file_id,
            version=version,
            library=0,
            platter_id=sealed.platter_id,
            start_track=extent.start_track,
            num_tracks=max(1, -(-extent.num_sectors // self.config.geometry.layers)),
            size_bytes=len(data),
        )
        self.metadata.record_write(location)
        return location

    def _ensure_key(self, file_id: str) -> bytes:
        from ..layout.metadata import _FileRecord

        record = self.metadata._files.setdefault(file_id, _FileRecord())
        if record.encryption_key is None:
            if self._key_rng is not None:
                record.encryption_key = self._key_rng.bytes(32)
            else:
                record.encryption_key = secrets.token_bytes(32)
        return record.encryption_key

    def _new_platter(self) -> Platter:
        self._platter_counter += 1
        platter = Platter(f"SRV{self._platter_counter:05d}", self.config.geometry)
        self._platters[platter.platter_id] = platter
        return platter

    # ------------------------------------------------------------------ #
    # get
    # ------------------------------------------------------------------ #

    def get(
        self, file_id: str, version: Optional[int] = None, tenant: str = ""
    ) -> bytes:
        """Read a file back through the full decode path.

        Metadata lookups retry on transient outages (capped exponential
        backoff) under the per-request deadline; sector decodes climb the
        re-read -> deeper-LDPC escalation ladder. With tenancy configured,
        the ``tenant``'s ingress quota is charged with the file's stored
        size (known once metadata resolves the location); an empty bucket
        raises :class:`repro.tenancy.admission.AdmissionRejected` before
        any glass is read.
        """
        deadline = self._clock + self.config.retry.deadline_seconds
        if self.tracer is not None:
            self.tracer.emit(
                self._clock, "service.get", component="frontend", file_id=file_id
            )
        location = self._metadata_call(
            lambda: self.metadata.locate(file_id, version), deadline
        )
        if self.admission is not None and not self.admission.admit(
            tenant, location.size_bytes, self._clock
        ):
            from ..tenancy.admission import AdmissionRejected

            self.retry_stats.admission_rejections += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self._clock,
                    "service.admission_reject",
                    component="frontend",
                    file_id=file_id,
                    tenant=tenant,
                    size_bytes=location.size_bytes,
                )
            raise AdmissionRejected(tenant, location.size_bytes)
        key = self._metadata_call(
            lambda: self.metadata.encryption_key(file_id), deadline
        )
        platter = self._platters[location.platter_id]
        extent = platter.header.locate(file_id)
        if extent is None:
            raise KeyError(f"platter header lost track of {file_id}")
        ciphertext = self._read_extent(platter, extent.start_track, extent.start_layer, extent.num_sectors)
        ciphertext = ciphertext[: extent.size_bytes]
        return decrypt(key, ciphertext)

    def _metadata_call(self, operation, deadline: float):
        """Run a metadata operation, retrying transient outages.

        Capped exponential backoff between attempts; gives up (re-raising
        :class:`MetadataUnavailable` wrapped in a deadline error) when the
        next backoff would cross the per-request deadline or the attempt
        budget is spent.
        """
        policy = self.config.retry
        attempt = 0
        while True:
            try:
                return operation()
            except MetadataUnavailable:
                attempt += 1
                # The running retry count doubles as the jitter token: each
                # successive retry (across requests) decorrelates when
                # jitter is enabled, and the token is ignored when it is
                # off, keeping the legacy schedule byte-exact.
                delay = policy.backoff(attempt, token=self.retry_stats.metadata_retries)
                if attempt >= policy.max_attempts or self._clock + delay > deadline:
                    self.retry_stats.metadata_failures += 1
                    raise RequestDeadlineExceeded(
                        f"metadata unavailable after {attempt} attempts "
                        f"({self._clock:.1f}s of {deadline:.1f}s deadline)"
                    )
                self.retry_stats.metadata_retries += 1
                self.retry_stats.backoff_seconds += delay
                self._clock += delay  # simulated wait; no wall-clock sleep
                if self.tracer is not None:
                    self.tracer.emit(
                        self._clock,
                        "service.metadata_retry",
                        component="frontend",
                        attempt=attempt,
                        backoff_s=delay,
                    )

    def _read_extent(
        self, platter: Platter, start_track: int, start_layer: int, num_sectors: int
    ) -> bytes:
        """Image and decode an extent's sectors in serpentine order.

        The sectors not yet read are imaged in one batched pass, one
        channel pass per sector in order. When sector ``k`` of a batch
        fails its first decode, the channel rewinds to just after pass
        ``k``, the sector climbs the retry ladder, and batching resumes at
        ``k + 1``: every sector sees the same noise draws and decodes as
        when read one at a time.
        """
        policy = self.config.retry
        channel = self.read_drive.channel
        addresses = extent_addresses(
            platter.geometry, SectorAddress(start_track, start_layer), num_sectors
        )
        chunks: List[bytes] = []
        while len(chunks) < len(addresses):
            pending = addresses[len(chunks):]
            stack = np.stack([platter.read_sector(address) for address in pending])
            checkpoint = channel.checkpoint()
            llrs = self.codec.llrs(channel.symbol_posteriors(channel.observe(stack)))
            for k, llr in enumerate(llrs):
                result = self.codec.decode_llrs(llr, max_iterations=policy.ldpc_iterations)
                if not result.success:
                    channel.rewind(checkpoint, passes=k + 1, voxels=stack.shape[1])
                    chunks.append(self._recover_sector(stack[k], pending[k], llr))
                    break
                chunks.append(result.payload)
        return b"".join(chunks)

    def _recover_sector(
        self, symbols: np.ndarray, address: SectorAddress, llr: np.ndarray
    ) -> bytes:
        """Climb the read-retry ladder for a sector whose first pass failed.

        Rung 0, the normal imaging pass at the default LDPC budget, has
        already failed with ``llr``. Rung 1: re-read — a fresh exposure
        redraws the channel noise, which clears most transient sector
        errors. Rung 2: deeper LDPC iteration budget on the last capture.
        Past the ladder the sector is unrecoverable in place and the caller
        must escalate to cross-platter network coding (not available in
        this single-library front end).
        """
        policy = self.config.retry
        channel = self.read_drive.channel
        for _ in range(policy.sector_rereads):
            self.retry_stats.sector_rereads += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self._clock,
                    "service.sector_reread",
                    component="frontend",
                    sector=str(address),
                )
            llr = self.codec.llrs(channel.symbol_posteriors(channel.observe(symbols)))
            result = self.codec.decode_llrs(llr, max_iterations=policy.ldpc_iterations)
            if result.success:
                return result.payload
        # Deeper iteration budget on the final capture.
        self.retry_stats.deep_decodes += 1
        if self.tracer is not None:
            self.tracer.emit(
                self._clock,
                "service.deep_decode",
                component="frontend",
                sector=str(address),
                iterations=policy.deep_ldpc_iterations,
            )
        result = self.codec.decode_llrs(llr, max_iterations=policy.deep_ldpc_iterations)
        if result.success:
            return result.payload
        self.retry_stats.unrecovered_sectors += 1
        if self.tracer is not None:
            self.tracer.emit(
                self._clock,
                "service.sector_unrecovered",
                component="frontend",
                sector=str(address),
            )
        raise IOError(
            f"sector {address} unrecoverable after "
            f"{policy.sector_rereads} re-read(s) and deep decode; "
            "escalate to network coding"
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def metrics_registry(self):
        """Fresh ``service_``-prefixed registry holding the retry ladder.

        Snapshot semantics: counters reflect :attr:`retry_stats` at call
        time. Export with ``to_prometheus()`` / ``as_dict()`` like any
        simulator registry.
        """
        from ..core.metrics import MetricsRegistry

        registry = MetricsRegistry(prefix="service_")
        self.retry_stats.publish(registry)
        return registry

    # ------------------------------------------------------------------ #
    # delete / recycle
    # ------------------------------------------------------------------ #

    def delete(self, file_id: str) -> None:
        """Crypto-shredding delete (Section 3)."""
        self.metadata.delete(file_id)

    def recyclable_platters(self) -> List[str]:
        """Platters with no live data — candidates for melting down."""
        return [
            pid
            for pid in self._platters
            if self.metadata.live_bytes_on(pid) == 0
        ]

    def recycle(self, platter_id: str) -> Platter:
        """Melt a dead platter back into blank media."""
        if self.metadata.live_bytes_on(platter_id) > 0:
            raise RuntimeError(f"platter {platter_id} still holds live data")
        platter = self._platters.pop(platter_id)
        return platter.recycle()
