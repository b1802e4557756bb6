"""Voxel symbol modulation.

Section 3: "a single voxel can encode multiple bits (on the order of 3 or 4)
by modulating the polarization of the laser beam and the pulse energy during
voxel creation". The physical degrees of freedom are the *retardance* (set by
pulse energy) and the *azimuth* of the slow axis (set by polarization) of the
induced form birefringence.

We model a 2-bit-per-voxel constellation: four azimuth angles at a fixed
retardance level. Each symbol maps to an ideal (retardance, azimuth) point;
the read channel (:mod:`repro.media.channel`) adds the noise processes and
the decode stack (:mod:`repro.decode`) classifies voxels back to symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class VoxelConstellation:
    """Symbol constellation for voxel modulation.

    ``bits_per_voxel`` bits map to ``2**bits_per_voxel`` azimuth angles
    evenly spaced over [0, pi) (birefringence azimuth is periodic in pi).
    """

    bits_per_voxel: int = 2
    retardance: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.bits_per_voxel <= 4:
            raise ValueError("bits_per_voxel must be 1..4 (paper: 3-4, demo: 2)")

    @property
    def num_symbols(self) -> int:
        """Constellation size: ``2**bits_per_voxel`` symbol values."""
        return 1 << self.bits_per_voxel

    @cached_property
    def points(self) -> np.ndarray:
        """Read-only (S, 2) table of every symbol's ideal observation.

        Row ``s`` is :meth:`ideal_observation` of symbol ``s``, computed
        once per constellation; demodulation and the read channel index it
        instead of recomputing cos/sin per voxel.
        """
        theta = math.pi * np.arange(self.num_symbols) / self.num_symbols
        table = self.retardance * np.stack([np.cos(2 * theta), np.sin(2 * theta)], axis=-1)
        table.flags.writeable = False
        return table

    def azimuth(self, symbol: int) -> float:
        """Slow-axis azimuth (radians, in [0, pi)) for a symbol value."""
        if not 0 <= symbol < self.num_symbols:
            raise ValueError(f"symbol {symbol} out of range")
        return math.pi * symbol / self.num_symbols

    def ideal_observation(self, symbol: int) -> Tuple[float, float]:
        """Noise-free (cos 2θ, sin 2θ) birefringence measurement of a symbol.

        Polarization microscopy measures birefringence orientation modulo pi,
        so observations live on the doubled-angle circle.
        """
        theta = self.azimuth(symbol)
        return (
            self.retardance * math.cos(2 * theta),
            self.retardance * math.sin(2 * theta),
        )

    def ideal_observations(self, symbols: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ideal_observation`; returns shape (..., 2)."""
        return self.points.take(np.asarray(symbols, dtype=np.intp), axis=0)

    def nearest_symbol(self, observations: np.ndarray) -> np.ndarray:
        """Hard-decision demodulation: nearest constellation point."""
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        d2 = ((observations[:, None, :] - self.points[None, :, :]) ** 2).sum(axis=-1)
        return d2.argmin(axis=1)


def bits_to_symbols(bits: np.ndarray, bits_per_voxel: int = 2) -> np.ndarray:
    """Pack a bit array into voxel symbols, MSB-first; zero-pads the tail."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    remainder = (-len(bits)) % bits_per_voxel
    if remainder:
        bits = np.concatenate([bits, np.zeros(remainder, dtype=np.uint8)])
    groups = bits.reshape(-1, bits_per_voxel)
    weights = 1 << np.arange(bits_per_voxel - 1, -1, -1)
    return (groups * weights).sum(axis=1).astype(np.uint8)


def symbols_to_bits(symbols: np.ndarray, bits_per_voxel: int = 2) -> np.ndarray:
    """Unpack voxel symbols back into bits, MSB-first."""
    symbols = np.asarray(symbols, dtype=np.uint8).ravel()
    shifts = np.arange(bits_per_voxel - 1, -1, -1)
    return ((symbols[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


def bytes_to_symbols(data: bytes, bits_per_voxel: int = 2) -> np.ndarray:
    """Convenience: bytes -> bit array -> voxel symbols."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return bits_to_symbols(bits, bits_per_voxel)


def symbols_to_bytes(symbols: np.ndarray, num_bytes: int, bits_per_voxel: int = 2) -> bytes:
    """Convenience: voxel symbols -> bits -> first ``num_bytes`` bytes."""
    bits = symbols_to_bits(symbols, bits_per_voxel)
    needed = num_bytes * 8
    if len(bits) < needed:
        raise ValueError(f"not enough symbols for {num_bytes} bytes")
    return np.packbits(bits[:needed]).tobytes()
