"""The write drive: femtosecond-laser platter writing, modeled.

Section 3/4: the write drive is full-rack-sized, writes multiple platters
concurrently in a single load each (deepest layer first), and is the cost
driver of the system — so utilization must stay high. Written platters leave
through a one-way eject bay (air-gap-by-design): the drive seals each platter
on eject and blank media is not reachable by the shuttles.

The drive has two faces here:

* **data path** — :meth:`write_file_sectors` runs the real pipeline
  (CRC + LDPC + voxel modulation via :class:`~repro.media.codec.SectorCodec`)
  into :class:`~repro.media.platter.Platter` objects;
* **capacity/energy model** — throughput and per-byte energy for the
  provisioning math and the sustainability accounting (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .codec import SectorCodec
from .geometry import PlatterGeometry, SectorAddress, extent_addresses
from .platter import FileExtent, Platter, WormViolation


@dataclass(frozen=True)
class WriteDriveConfig:
    """Write drive throughput/energy parameters.

    ``platter_slots`` platters are written concurrently; aggregate drive
    throughput is ``per_platter_write_mbps * platter_slots``. Energy figures
    feed the sustainability comparison (Table 2); femtosecond lasers dominate
    drive power.
    """

    platter_slots: int = 4
    per_platter_write_mbps: float = 15.0
    write_power_watts: float = 4000.0
    load_seconds: float = 30.0
    eject_seconds: float = 30.0


@dataclass
class WriteStats:
    """Accounting of everything a drive instance has written."""

    bytes_written: int = 0
    sectors_written: int = 0
    platters_completed: int = 0
    busy_seconds: float = 0.0
    energy_joules: float = 0.0


class WriteDrive:
    """A full-rack write drive."""

    def __init__(
        self,
        config: Optional[WriteDriveConfig] = None,
        codec: Optional[SectorCodec] = None,
    ):
        self.config = config or WriteDriveConfig()
        self.codec = codec or SectorCodec()
        self.stats = WriteStats()
        self._loaded: Dict[str, Platter] = {}

    # ------------------------------------------------------------------ #
    # Mechanics / capacity model
    # ------------------------------------------------------------------ #

    @property
    def aggregate_write_mbps(self) -> float:
        return self.config.per_platter_write_mbps * self.config.platter_slots

    def seconds_to_write(self, num_bytes: int) -> float:
        """Time for one platter slot to write ``num_bytes`` of user data."""
        return num_bytes / (self.config.per_platter_write_mbps * 1e6)

    def energy_to_write(self, num_bytes: int) -> float:
        """Joules attributable to writing ``num_bytes`` on one slot."""
        seconds = self.seconds_to_write(num_bytes)
        return seconds * self.config.write_power_watts / self.config.platter_slots

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #

    def load_blank(self, platter: Platter) -> None:
        """Insert blank media (only reachable from the supply, not shuttles)."""
        if not platter.is_blank:
            raise WormViolation(
                f"platter {platter.platter_id} is not blank; air-gap forbids re-insertion"
            )
        if platter.sealed:
            raise WormViolation(f"platter {platter.platter_id} is sealed")
        if len(self._loaded) >= self.config.platter_slots:
            raise RuntimeError("all write drive slots are occupied")
        self._loaded[platter.platter_id] = platter

    def loaded_platters(self) -> List[str]:
        return list(self._loaded)

    def write_file_sectors(
        self,
        platter_id: str,
        file_id: str,
        payload: bytes,
        start: SectorAddress,
    ) -> FileExtent:
        """Write a file's bytes as consecutive sectors from ``start``.

        Sectors follow serpentine order beginning at ``start`` (Section 6
        placement hands us the start address). Returns the header extent.
        """
        platter = self._require_loaded(platter_id)
        sector_payload = self.codec.payload_bytes
        num_sectors = max(1, -(-len(payload) // sector_payload))
        try:
            addresses = extent_addresses(platter.geometry, start, num_sectors)
        except ValueError:
            raise ValueError(
                f"file {file_id} ({len(payload)} bytes) does not fit from {start}"
            )
        for i, address in enumerate(addresses):
            chunk = payload[i * sector_payload : (i + 1) * sector_payload]
            symbols = self.codec.encode(chunk)
            platter.write_sector(address, symbols)
            self.stats.sectors_written += 1
        self.stats.bytes_written += len(payload)
        self.stats.busy_seconds += self.seconds_to_write(len(payload))
        self.stats.energy_joules += self.energy_to_write(len(payload))
        extent = FileExtent(
            file_id=file_id,
            start_track=start.track,
            start_layer=start.layer,
            num_sectors=num_sectors,
            size_bytes=len(payload),
        )
        platter.register_file(extent)
        return extent

    def write_raw_sector(self, platter_id: str, address: SectorAddress, payload: bytes) -> None:
        """Write one pre-assembled sector (used for NC redundancy sectors)."""
        platter = self._require_loaded(platter_id)
        platter.write_sector(address, self.codec.encode(payload))
        self.stats.sectors_written += 1
        self.stats.bytes_written += len(payload)

    def unload(self, platter_id: str) -> Platter:
        """Abort a write: take a loaded platter out without sealing it.

        For a write that failed before eject; the platter is not handed
        on as sealed media and the drive slot is free again.
        """
        platter = self._require_loaded(platter_id)
        del self._loaded[platter_id]
        return platter

    def eject(self, platter_id: str) -> Platter:
        """One-way eject: seal the platter (air gap) and hand it out."""
        platter = self._require_loaded(platter_id)
        del self._loaded[platter_id]
        platter.seal()
        self.stats.platters_completed += 1
        return platter

    def _require_loaded(self, platter_id: str) -> Platter:
        try:
            return self._loaded[platter_id]
        except KeyError:
            raise KeyError(f"platter {platter_id} is not loaded in this write drive")
