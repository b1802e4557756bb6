"""Per-sector checksums.

Section 5: "We also employ per-sector checksums to verify that the result of
the LDPC decode procedure is correct." We implement CRC-32C (Castagnoli), the
polynomial used widely in storage systems, from scratch with a table-driven
byte-at-a-time kernel, plus a convenience frame format that appends the
checksum to a payload.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

_POLY = 0x82F63B78  # CRC-32C, reflected form


def _build_table() -> List[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


# Python ints, not numpy scalars: the byte loop stays in plain int arithmetic.
_TABLE = _build_table()


def crc32c(data: bytes, initial: int = 0) -> int:
    """CRC-32C of ``data``. ``initial`` allows incremental computation."""
    crc = initial ^ 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def append_checksum(payload: bytes) -> bytes:
    """Return ``payload`` with its CRC-32C appended (little-endian u32)."""
    return payload + struct.pack("<I", crc32c(payload))


def verify_checksum(frame: bytes) -> Tuple[bool, bytes]:
    """Split a checksummed frame into (ok, payload).

    ``ok`` is False when the frame is too short or the CRC mismatches; the
    payload is returned either way (callers escalate to erasure coding).
    """
    if len(frame) < 4:
        return False, b""
    payload, stored = frame[:-4], struct.unpack("<I", frame[-4:])[0]
    return crc32c(payload) == stored, payload
