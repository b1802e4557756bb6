"""Data verification (Section 3.1).

"As different technologies are used to read and write, after a platter is
written it must be fully read using the same technology that will be used to
read it subsequently. This happens before a platter is stored in the library
and any staged write data is deleted. ... the verification workload simply
utilizes what would otherwise be idle read drives. ... Customer traffic is
prioritized over verification, with the read drive switching away when a
platter is mounted for a customer read."

:class:`VerificationManager` owns the queue of freshly written platters and
executes full-platter verification reads through the real decode path (LDPC
+ CRC per sector; imaging, posteriors and LLRs batched over the platter),
recording per-sector recoverability and LDPC margin — the
signals Section 5 uses to declare files durably stored or send them back to
staging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..ecc.durability import durably_stored, ldpc_margin
from ..media.codec import SectorCodec, SectorDecodeResult
from ..media.geometry import SectorAddress, extent_addresses
from ..media.platter import Platter
from ..media.read_drive import ReadDriveModel


@dataclass
class SectorVerdict:
    """Verification outcome for one sector."""

    address: SectorAddress
    recoverable: bool
    ldpc_iterations: int
    margin: float  # available LDPC margin (>1 = headroom)


@dataclass
class PlatterVerificationReport:
    """Outcome of fully verifying one platter."""

    platter_id: str
    sectors_checked: int
    sectors_failed: int
    verdicts: List[SectorVerdict] = field(default_factory=list)
    failed_files: List[str] = field(default_factory=list)

    @property
    def sector_failure_rate(self) -> float:
        """Share of checked sectors that failed verification (0 if none)."""
        if self.sectors_checked == 0:
            return 0.0
        return self.sectors_failed / self.sectors_checked

    @property
    def passed(self) -> bool:
        """All files durably stored (failures go back to staging, §5)."""
        return not self.failed_files


class VerificationManager:
    """Queue + execution of full-platter verification."""

    def __init__(
        self,
        drive: ReadDriveModel,
        codec: SectorCodec,
        margin_safety_factor: float = 2.0,
    ):
        self.drive = drive
        self.codec = codec
        self.margin_safety_factor = margin_safety_factor
        self._queue: List[Platter] = []
        self.reports: List[PlatterVerificationReport] = []

    @property
    def pending(self) -> int:
        """Platters queued and not yet verified."""
        return len(self._queue)

    def submit(self, platter: Platter) -> None:
        """A freshly written (sealed) platter awaiting verification."""
        if not platter.sealed:
            raise ValueError(
                f"platter {platter.platter_id} must be sealed (ejected) first"
            )
        self._queue.append(platter)

    def verify_next(self) -> Optional[PlatterVerificationReport]:
        """Fully verify the next queued platter through the decode path."""
        if not self._queue:
            return None
        platter = self._queue.pop(0)
        return self.verify_platter(platter)

    def verify_platter(self, platter: Platter) -> PlatterVerificationReport:
        """Read every written sector with the *read* technology and decode.

        Correctable-but-marginal sectors count as recoverable but lower the
        margin; unrecoverable sectors mark their file for re-staging.
        """
        verdicts: List[SectorVerdict] = []
        written = [
            (SectorAddress(track, layer), symbols)
            for track in platter.written_tracks()
            for layer, symbols in enumerate(platter.read_track(track))
            if symbols is not None
        ]
        channel = self.drive.channel
        # One imaging pass per sector in platter order, batched over each
        # run of equal-length sectors (a codec-written platter is one run).
        for _length, run in groupby(written, key=lambda item: item[1].size):
            run = list(run)
            stack = np.stack([symbols for _address, symbols in run])
            llrs = self.codec.llrs(channel.symbol_posteriors(channel.observe(stack)))
            for (address, _symbols), llr in zip(run, llrs):
                verdicts.append(self._verdict(address, self.codec.decode_llrs(llr)))
        failed = {(v.address.track, v.address.layer) for v in verdicts if not v.recoverable}
        failed_files = self._files_touching(platter, failed)
        report = PlatterVerificationReport(
            platter_id=platter.platter_id,
            sectors_checked=len(verdicts),
            sectors_failed=len(failed),
            verdicts=verdicts,
            failed_files=failed_files,
        )
        self.reports.append(report)
        return report

    def _verdict(self, address: SectorAddress, result: SectorDecodeResult) -> SectorVerdict:
        """Recoverability and LDPC margin of one decoded sector."""
        # Margin proxy: how far below the iteration budget the decoder
        # converged (fast convergence = wide margin).
        if result.success:
            margin = ldpc_margin(
                observed_bit_error_rate=max(result.iterations, 1) / 50.0 * 0.01,
                correctable_bit_error_rate=0.01,
            )
        else:
            margin = 0.0
        recoverable = result.success and durably_stored(
            margin, safety_factor=self.margin_safety_factor
        )
        return SectorVerdict(address, recoverable, result.iterations, margin)

    def _files_touching(
        self, platter: Platter, failed: Set[Tuple[int, int]]
    ) -> List[str]:
        """Files whose extents include a failed sector.

        Section 5: "If a file cannot be recovered from a platter during
        verification, it can simply be kept in staging and rewritten onto a
        different platter later" — the whole platter need not be rewritten.
        """
        if not failed:
            return []
        out = []
        for extent in platter.header.extents:
            # Walk the same serpentine order the write drive used.
            addresses = {
                (a.track, a.layer)
                for a in extent_addresses(
                    platter.geometry,
                    SectorAddress(extent.start_track, extent.start_layer),
                    extent.num_sectors,
                )
            }
            if addresses & failed:
                out.append(extent.file_id)
        return out

    def verification_seconds(self, platter_bytes: float) -> float:
        """Drive time to fully verify ``platter_bytes`` of written data."""
        return self.drive.seconds_to_scan(platter_bytes)
