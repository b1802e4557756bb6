"""Tests for the analog read channel."""

import numpy as np
import pytest

from repro.media.channel import ChannelModel, ReadChannel
from repro.media.codec import SectorCodec
from repro.media.voxel import VoxelConstellation


class TestChannelModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(sensor_noise_sigma=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(isi_fraction=1.0)

    def test_defaults_give_low_raw_error(self):
        channel = ReadChannel()
        error = channel.symbol_error_rate(num_voxels=20_000)
        assert 0 < error < 0.01  # near the paper's 1e-3 sector regime


class TestObservation:
    def test_shape(self):
        channel = ReadChannel(seed=1)
        symbols = np.array([0, 1, 2, 3], dtype=np.uint8)
        obs = channel.observe(symbols)
        assert obs.shape == (4, 2)

    def test_noiseless_channel_is_exact(self):
        model = ChannelModel(
            sensor_noise_sigma=0.0,
            isi_fraction=0.0,
            layer_crosstalk_sigma=0.0,
            gain_sigma=0.0,
            offset_sigma=0.0,
            voxel_dropout_probability=0.0,
        )
        channel = ReadChannel(model=model)
        constellation = channel.constellation
        symbols = np.array([0, 1, 2, 3], dtype=np.uint8)
        obs = channel.observe(symbols)
        expected = constellation.ideal_observations(symbols)
        assert np.allclose(obs, expected)

    def test_reads_never_modify_media(self):
        """Reading cannot corrupt written voxels (Section 3): the platter's
        symbols are identical no matter how many times they are imaged."""
        channel = ReadChannel(seed=2)
        symbols = np.array([1, 2, 3, 0], dtype=np.uint8)
        original = symbols.copy()
        for _ in range(5):
            channel.observe(symbols)
        assert (symbols == original).all()

    def test_isi_pulls_towards_neighbours(self):
        model = ChannelModel(
            sensor_noise_sigma=0.0,
            isi_fraction=0.4,
            layer_crosstalk_sigma=0.0,
            gain_sigma=0.0,
            offset_sigma=0.0,
            voxel_dropout_probability=0.0,
        )
        channel = ReadChannel(model=model)
        # Middle voxel surrounded by opposite-phase neighbours moves toward 0.
        symbols = np.array([2, 0, 2], dtype=np.uint8)
        obs = channel.observe(symbols)
        clean = channel.constellation.ideal_observations(symbols)
        assert abs(obs[1, 0]) < abs(clean[1, 0])

    def test_dropout_zeroes_voxels(self):
        model = ChannelModel(
            sensor_noise_sigma=0.0,
            isi_fraction=0.0,
            layer_crosstalk_sigma=0.0,
            gain_sigma=0.0,
            offset_sigma=0.0,
            voxel_dropout_probability=1.0,
        )
        channel = ReadChannel(model=model)
        obs = channel.observe(np.array([0, 1, 2], dtype=np.uint8))
        assert np.allclose(obs, 0.0)

    def test_deterministic_given_rng(self):
        symbols = np.arange(4, dtype=np.uint8) % 4
        a = ReadChannel(seed=7).observe(symbols)
        b = ReadChannel(seed=7).observe(symbols)
        assert np.allclose(a, b)


class TestPosteriors:
    def test_rows_are_distributions(self):
        channel = ReadChannel(seed=3)
        symbols = np.random.default_rng(0).integers(0, 4, 100).astype(np.uint8)
        posteriors = channel.symbol_posteriors(channel.observe(symbols))
        assert posteriors.shape == (100, 4)
        assert np.allclose(posteriors.sum(axis=1), 1.0)
        assert (posteriors >= 0).all()

    def test_clean_observation_is_confident(self):
        channel = ReadChannel(seed=4)
        ideal = channel.constellation.ideal_observations(np.array([2]))
        posteriors = channel.symbol_posteriors(ideal, noise_sigma=0.1)
        assert posteriors[0].argmax() == 2
        assert posteriors[0, 2] > 0.99

    def test_ambiguous_observation_is_uncertain(self):
        channel = ReadChannel(seed=5)
        posteriors = channel.symbol_posteriors(np.zeros((1, 2)), noise_sigma=0.2)
        assert posteriors[0].max() < 0.5  # equidistant from all four symbols

    def test_zero_noise_is_the_one_hot_limit(self):
        channel = ReadChannel(seed=6)
        ideal = channel.constellation.ideal_observations(np.array([0, 1, 2, 3]))
        posteriors = channel.symbol_posteriors(ideal, noise_sigma=0.0)
        assert np.array_equal(posteriors, np.eye(4))
        # The origin is equidistant from all four points: ties split evenly.
        tie = channel.symbol_posteriors(np.zeros((1, 2)), noise_sigma=0.0)
        assert np.array_equal(tie, np.full((1, 4), 0.25))

    def test_negative_noise_sigma_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            ReadChannel().symbol_posteriors(np.zeros((1, 2)), noise_sigma=-0.1)

    def test_zero_noise_channel_round_trips_a_sector(self):
        codec = SectorCodec(payload_bytes=64)
        channel = ReadChannel(ChannelModel(sensor_noise_sigma=0.0), seed=8)
        payload = bytes(range(64))
        posteriors = channel.symbol_posteriors(channel.observe(codec.encode(payload)))
        assert not np.isnan(posteriors).any()
        result = codec.decode(posteriors)
        assert result.success and result.payload == payload

    def test_error_rate_monotone_in_noise(self):
        low = ReadChannel(model=ChannelModel(sensor_noise_sigma=0.05)).symbol_error_rate(10_000)
        high = ReadChannel(model=ChannelModel(sensor_noise_sigma=0.40)).symbol_error_rate(10_000)
        assert high > low
