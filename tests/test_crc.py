"""Tests for CRC-32C checksums."""

import numpy as np
import pytest

from repro.ecc.crc import append_checksum, crc32c, verify_checksum


class TestCrc32c:
    def test_known_vector_empty(self):
        assert crc32c(b"") == 0

    def test_known_vector_standard(self):
        # RFC 3720 test vector: 32 bytes of zeros.
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_known_vector_ones(self):
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_known_vector_ascending(self):
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_check_value(self):
        # The CRC-32C catalogue "check" value.
        assert crc32c(b"123456789") == 0xE3069283

    def test_incremental_matches_one_shot(self):
        assert crc32c(b"56789", initial=crc32c(b"1234")) == crc32c(b"123456789")

    def test_single_bit_flip_detected(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        baseline = crc32c(data)
        for byte_index in [0, 50, 99]:
            for bit in [0, 7]:
                corrupted = bytearray(data)
                corrupted[byte_index] ^= 1 << bit
                assert crc32c(bytes(corrupted)) != baseline

    def test_deterministic(self):
        data = b"project silica"
        assert crc32c(data) == crc32c(data)

    def test_different_payloads_differ(self):
        assert crc32c(b"aaa") != crc32c(b"aab")


class TestFrames:
    def test_roundtrip(self):
        payload = b"hello glass"
        ok, recovered = verify_checksum(append_checksum(payload))
        assert ok
        assert recovered == payload

    def test_empty_payload_roundtrip(self):
        ok, recovered = verify_checksum(append_checksum(b""))
        assert ok
        assert recovered == b""

    def test_corrupt_payload_detected(self):
        frame = bytearray(append_checksum(b"some sector data"))
        frame[3] ^= 0x40
        ok, _ = verify_checksum(bytes(frame))
        assert not ok

    def test_corrupt_checksum_detected(self):
        frame = bytearray(append_checksum(b"some sector data"))
        frame[-1] ^= 0x01
        ok, _ = verify_checksum(bytes(frame))
        assert not ok

    def test_short_frame_rejected(self):
        ok, payload = verify_checksum(b"ab")
        assert not ok
        assert payload == b""

    def test_frame_adds_exactly_four_bytes(self):
        assert len(append_checksum(b"x" * 10)) == 14
