"""Equivalence oracle for the batched read side of the byte data path.

``reference_observe``, ``reference_posteriors``, ``reference_verify`` and
``reference_read_extent`` are the original one-sector-at-a-time channel,
posterior formula, platter verification and get-path retry ladder, kept
here (and only here) as the specification. The batched production code
must give identical observations, posteriors, verdicts, bytes, retry
counters and final generator state: any drift would change which sectors
decode on every committed baseline.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.media.channel import ChannelModel, ReadChannel
from repro.media.codec import SectorCodec
from repro.media.geometry import PlatterGeometry, SectorAddress, extent_addresses
from repro.media.platter import Platter
from repro.media.read_drive import ReadDriveModel
from repro.media.write_drive import WriteDrive
from repro.service import ArchiveService, ServiceConfig
from repro.service.frontend import decrypt
from repro.service.verification import VerificationManager


def reference_points(constellation) -> np.ndarray:
    """(S, 2) ideal observations, recomputed from cos/sin as before."""
    theta = math.pi * np.arange(constellation.num_symbols) / constellation.num_symbols
    return constellation.retardance * np.stack([np.cos(2 * theta), np.sin(2 * theta)], axis=-1)


def reference_observe(channel: ReadChannel, symbols: np.ndarray, rng) -> np.ndarray:
    """One sector's imaging pass with one generator call per noise term."""
    model = channel.model
    symbols = np.asarray(symbols, dtype=np.uint8)
    ideal = reference_points(channel.constellation)[symbols]
    observed = ideal.copy()
    if model.voxel_dropout_probability > 0:
        dropped = rng.random(len(symbols)) < model.voxel_dropout_probability
        observed[dropped] = 0.0
    if model.isi_fraction > 0 and len(symbols) > 1:
        left = np.roll(ideal, 1, axis=0)
        right = np.roll(ideal, -1, axis=0)
        left[0] = 0.0
        right[-1] = 0.0
        observed = (1 - model.isi_fraction) * observed + (model.isi_fraction / 2) * (left + right)
    if model.layer_crosstalk_sigma > 0:
        observed += rng.normal(0, model.layer_crosstalk_sigma, observed.shape)
    gain = 1.0 + rng.normal(0, model.gain_sigma)
    offset = rng.normal(0, model.offset_sigma, 2)
    observed = gain * observed + offset
    observed += rng.normal(0, model.sensor_noise_sigma, observed.shape)
    return observed


def reference_posteriors(channel: ReadChannel, observations, sigma: float) -> np.ndarray:
    """The (N, S, 2) broadcast Gaussian posterior formula."""
    observations = np.atleast_2d(observations)
    ideals = reference_points(channel.constellation)
    d2 = ((observations[:, None, :] - ideals[None, :, :]) ** 2).sum(axis=-1)
    log_lik = -d2 / (2 * sigma**2)
    log_lik -= log_lik.max(axis=1, keepdims=True)
    posterior = np.exp(log_lik)
    posterior /= posterior.sum(axis=1, keepdims=True)
    return posterior


def _reference_posteriors_of(channel: ReadChannel, symbols: np.ndarray) -> np.ndarray:
    observations = reference_observe(channel, symbols, channel._rng)
    return reference_posteriors(channel, observations, channel.model.sensor_noise_sigma)


def reference_verify(drive: ReadDriveModel, codec: SectorCodec, platter: Platter):
    """Per-sector (address, success, iterations) in platter order."""
    out = []
    for track in platter.written_tracks():
        for layer, symbols in enumerate(platter.read_track(track)):
            if symbols is None:
                continue
            result = codec.decode(_reference_posteriors_of(drive.channel, symbols))
            out.append((SectorAddress(track, layer), result.success, result.iterations))
    return out


def reference_read_extent(service: ArchiveService, platter: Platter, extent) -> bytes:
    """The per-sector get path: image, decode, climb the ladder, repeat."""
    policy = service.config.retry
    channel = service.read_drive.channel
    stats = service.retry_stats
    chunks = []
    for address in extent_addresses(
        platter.geometry, SectorAddress(extent.start_track, extent.start_layer), extent.num_sectors
    ):
        symbols = platter.read_sector(address)
        for reread in range(policy.sector_rereads + 1):
            posteriors = _reference_posteriors_of(channel, symbols)
            result = service.codec.decode(posteriors, max_iterations=policy.ldpc_iterations)
            if result.success:
                break
            if reread < policy.sector_rereads:
                stats.sector_rereads += 1
        else:
            stats.deep_decodes += 1
            result = service.codec.decode(posteriors, max_iterations=policy.deep_ldpc_iterations)
            if not result.success:
                stats.unrecovered_sectors += 1
                raise IOError(f"sector {address} unrecoverable")
        chunks.append(result.payload)
    return b"".join(chunks)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestObserveOracle:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        dropout=st.sampled_from([0.0, 0.2]),
        isi=st.sampled_from([0.0, 0.06]),
        crosstalk=st.sampled_from([0.0, 0.05]),
        passes=st.integers(1, 5),
        voxels=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_sequential_passes(self, dropout, isi, crosstalk, passes, voxels, seed):
        model = ChannelModel(
            isi_fraction=isi,
            layer_crosstalk_sigma=crosstalk,
            voxel_dropout_probability=dropout,
        )
        batched = ReadChannel(model, seed=seed)
        reference = ReadChannel(model, seed=seed)
        stack = np.random.default_rng(seed).integers(0, 4, (passes, voxels)).astype(np.uint8)
        observed = batched.observe(stack)
        expected = np.stack([reference_observe(reference, s, reference._rng) for s in stack])
        assert _bits_equal(observed, expected)
        assert batched.checkpoint() == reference.checkpoint()
        # One sector is the batch of one.
        expected = reference_observe(reference, stack[0], reference._rng)
        assert _bits_equal(batched.observe(stack[0]), expected)
        assert batched.checkpoint() == reference.checkpoint()

    def test_rewind_replays_draws_without_imaging(self):
        channel = ReadChannel(seed=9)
        reference = ReadChannel(seed=9)
        stack = np.random.default_rng(2).integers(0, 4, (6, 50)).astype(np.uint8)
        checkpoint = channel.checkpoint()
        channel.observe(stack)
        channel.rewind(checkpoint, passes=2, voxels=50)
        for symbols in stack[:2]:
            reference_observe(reference, symbols, reference._rng)
        assert channel.checkpoint() == reference.checkpoint()
        expected = reference_observe(reference, stack[2], reference._rng)
        assert _bits_equal(channel.observe(stack[2]), expected)

    def test_drive_images_track_with_same_draws(self):
        geometry = PlatterGeometry(
            tracks=2, layers=4, voxels_per_sector=700, sector_payload_bytes=96
        )
        codec = SectorCodec(payload_bytes=96)
        platter = Platter("t", geometry)
        writer = WriteDrive(codec=codec)
        writer.load_blank(platter)
        writer.write_file_sectors("t", "f", b"z" * 250, SectorAddress(0, 0))
        images = ReadDriveModel(seed=4).image_track(platter, 0)
        reference = ReadDriveModel(seed=4)
        for symbols, image in zip(platter.read_track(0), images):
            if symbols is None:
                assert image is None
            else:
                expected = reference_observe(reference.channel, symbols, reference._rng)
                assert _bits_equal(image, expected)


class TestPosteriorOracle:
    @pytest.mark.parametrize("sigma", [0.05, 0.18, 0.34, 3.0])
    def test_column_formula_is_bit_identical(self, sigma):
        channel = ReadChannel()
        observations = np.random.default_rng(5).normal(0, 0.8, (20_000, 2))
        expected = reference_posteriors(channel, observations, sigma)
        assert _bits_equal(channel.symbol_posteriors(observations, noise_sigma=sigma), expected)
        stacked = channel.symbol_posteriors(observations.reshape(40, 500, 2), noise_sigma=sigma)
        assert _bits_equal(stacked.reshape(-1, 4), expected)


class TestVerifyOracle:
    @pytest.mark.parametrize("sigma", [0.18, 0.34])
    def test_verdicts_match_per_sector_reference(self, sigma):
        geometry = PlatterGeometry(
            tracks=6, layers=4, voxels_per_sector=600, sector_payload_bytes=64
        )
        codec = SectorCodec(payload_bytes=64)
        platter = Platter("v", geometry)
        writer = WriteDrive(codec=codec)
        writer.load_blank(platter)
        writer.write_file_sectors("v", "a", bytes(range(256)) * 4, SectorAddress(0, 0))
        writer.write_file_sectors("v", "b", b"b" * 300, SectorAddress(4, 0))
        platter = writer.eject("v")

        def drive():
            channel = ReadChannel(ChannelModel(sensor_noise_sigma=sigma), seed=6)
            return ReadDriveModel(channel=channel)

        batched, reference = drive(), drive()
        report = VerificationManager(batched, codec).verify_platter(platter)
        expected = reference_verify(reference, codec, platter)
        assert [(v.address, v.ldpc_iterations) for v in report.verdicts] == [
            (address, iterations) for address, _ok, iterations in expected
        ]
        assert report.sectors_checked == len(expected)
        assert batched.channel.checkpoint() == reference.channel.checkpoint()
        if sigma > 0.3:  # the noisy case must exercise failed sectors
            assert not all(ok for _address, ok, _iterations in expected)


class TestGetOracle:
    @pytest.mark.parametrize("sigma", [0.30, 0.34, 0.38])
    def test_noisy_get_matches_per_sector_ladder(self, sigma):
        data = b"recoverable with retries" * 60  # 12 sectors

        def service_after_put():
            service = ArchiveService(ServiceConfig(key_seed=0))
            service.put("l/noisy", data)
            noisy = ReadChannel(ChannelModel(sensor_noise_sigma=sigma), seed=3)
            service.read_drive = ReadDriveModel(channel=noisy, seed=3)
            return service

        batched, reference = service_after_put(), service_after_put()
        try:
            got = batched.get("l/noisy")
        except IOError:
            got = IOError
        location = reference.metadata.locate("l/noisy")
        platter = reference._platters[location.platter_id]
        extent = platter.header.locate("l/noisy")
        try:
            ciphertext = reference_read_extent(reference, platter, extent)[: extent.size_bytes]
            expected = decrypt(reference.metadata.encryption_key("l/noisy"), ciphertext)
        except IOError:
            expected = IOError
        assert got == expected
        assert batched.retry_stats.as_dict() == reference.retry_stats.as_dict()
        assert batched.read_drive.channel.checkpoint() == reference.read_drive.channel.checkpoint()
        if sigma >= 0.34:  # the ladder was climbed mid-extent
            assert batched.retry_stats.sector_rereads > 0
