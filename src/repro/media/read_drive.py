"""The read drive: polarization-microscopy imaging, modeled.

Sections 3, 3.1 and 7.1:

* a read drive images whole sectors; a track (the Z stack of sectors) is the
  minimum read unit, scanned in one fast pass;
* drive throughput scales in multiples of 30 MB/s (30..210 evaluated);
* the drive has **two slots** so a platter under verification can stay
  mounted while a customer platter is serviced, with ~1 s *fast switching*
  between them (the mice-vs-elephant-flows trick);
* mount/unmount are a conservative constant 1 s each; random seeks have a
  median of 0.6 s and a maximum of 2 s (Figure 3d);
* reading physically cannot modify voxels, so the data path here is
  read-only by construction — it emits observations, never touches media.

This module provides the timing/data model; the DES wraps it with queueing
and scheduling state (:mod:`repro.core.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import List, Optional

import numpy as np

from .channel import ChannelModel, ReadChannel
from .platter import Platter


ALLOWED_THROUGHPUTS_MBPS = tuple(range(30, 211, 30))


@dataclass(frozen=True)
class SeekModel:
    """Random-seek latency (Figure 3d): lognormal body with a hard cap.

    Parameters are fit so the sampled distribution has a ~0.6 s median and
    a 2 s maximum, as measured on the prototype read stage.
    """

    median_seconds: float = 0.6
    sigma: float = 0.45
    max_seconds: float = 2.0

    def sample(self, rng: np.random.Generator, n: Optional[int] = None):
        mu = np.log(self.median_seconds)
        values = rng.lognormal(mu, self.sigma, size=n)
        return np.minimum(values, self.max_seconds) if n is not None else min(
            float(values), self.max_seconds
        )


@dataclass(frozen=True)
class ReadDriveConfig:
    """Read drive mechanics and throughput.

    ``throughput_mbps`` must be one of the 30 MB/s multiples offered by the
    read technology; mixing throughputs within a library is allowed
    (Section 3) and exercised by the Figure 5 sweeps.
    """

    throughput_mbps: float = 60.0
    mount_seconds: float = 1.0
    unmount_seconds: float = 1.0
    fast_switch_seconds: float = 1.0
    seek: SeekModel = field(default_factory=SeekModel)
    num_slots: int = 2
    read_power_watts: float = 120.0

    def __post_init__(self) -> None:
        if self.throughput_mbps not in ALLOWED_THROUGHPUTS_MBPS:
            raise ValueError(
                f"read drive throughput must be one of {ALLOWED_THROUGHPUTS_MBPS} MB/s"
            )
        if self.num_slots < 1:
            raise ValueError("read drive needs at least one slot")


@dataclass
class ReadStats:
    """Utilization accounting (Figure 6 definitions).

    Utilization counts time executing reads or verifies *including*
    mounting, unmounting and seeking but *excluding* fast switching.
    """

    read_seconds: float = 0.0
    verify_seconds: float = 0.0
    switch_seconds: float = 0.0
    idle_seconds: float = 0.0
    bytes_read: float = 0.0
    bytes_verified: float = 0.0
    mounts: int = 0
    switches: int = 0

    def utilization(self, total_seconds: float) -> float:
        if total_seconds <= 0:
            return 0.0
        return (self.read_seconds + self.verify_seconds) / total_seconds


class ReadDriveModel:
    """Timing + data path of one read drive."""

    def __init__(
        self,
        config: Optional[ReadDriveConfig] = None,
        channel: Optional[ReadChannel] = None,
        seed: int = 0,
    ):
        self.config = config or ReadDriveConfig()
        self.channel = channel or ReadChannel(seed=seed)
        self.stats = ReadStats()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Timing model
    # ------------------------------------------------------------------ #

    def seconds_to_scan(self, num_bytes: float) -> float:
        """Time to scan ``num_bytes`` of track data at drive throughput."""
        return num_bytes / (self.config.throughput_mbps * 1e6)

    def sample_seek(self, rng: Optional[np.random.Generator] = None) -> float:
        return self.config.seek.sample(rng or self._rng)

    def read_operation_seconds(
        self,
        num_bytes: float,
        needs_mount: bool = True,
        needs_seek: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """End-to-end drive time for one read: mount + seek + scan."""
        total = 0.0
        if needs_mount:
            total += self.config.mount_seconds
        if needs_seek:
            total += self.sample_seek(rng)
        total += self.seconds_to_scan(num_bytes)
        return total

    # ------------------------------------------------------------------ #
    # Data path (read-only by construction)
    # ------------------------------------------------------------------ #

    def image_track(self, platter: Platter, track: int) -> List[Optional[np.ndarray]]:
        """Image every written sector of a track.

        Returns per-sector observation arrays of shape (voxels, 2); None for
        unwritten sectors. The drive does not decode (Section 3) — decoding
        happens in the disaggregated ML stack.
        """
        sectors = platter.read_track(track)
        images: List[Optional[np.ndarray]] = [None] * len(sectors)
        written = [layer for layer, symbols in enumerate(sectors) if symbols is not None]
        # One imaging pass per written sector, deepest first, batched over
        # each run of equal-length sectors.
        for _size, run in groupby(written, key=lambda layer: sectors[layer].size):
            run = list(run)
            stack = np.stack([sectors[layer] for layer in run])
            for layer, image in zip(run, self.channel.observe(stack, rng=self._rng)):
                images[layer] = image
        return images

    def image_sector(self, platter: Platter, track: int, layer: int) -> Optional[np.ndarray]:
        """Image a single sector (one camera exposure)."""
        from .geometry import SectorAddress

        symbols = platter.read_sector(SectorAddress(track, layer))
        if symbols is None:
            return None
        return self.channel.observe(symbols, rng=self._rng)
