"""Sector codec: bytes <-> LDPC-protected voxel symbols.

The write path of Section 3/5 in one object: a sector payload gets a CRC-32C
appended, is LDPC-encoded, and the codeword bits are modulated onto voxel
symbols. The read path consumes per-voxel symbol posteriors (from the ML
decode stack or the analytic channel), converts them to bit LLRs, runs the
min-sum LDPC decoder, and checks the CRC. LLRs are computed for a whole
stack of sectors in one call (:meth:`SectorCodec.llrs`); LDPC and CRC
still run one sector at a time (:meth:`SectorCodec.decode_llrs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..ecc.crc import append_checksum, verify_checksum
from ..ecc.ldpc import LdpcCode, LdpcResult, llr_from_symbol_posteriors
from .voxel import VoxelConstellation, bits_to_symbols


@dataclass(frozen=True)
class SectorDecodeResult:
    """Outcome of decoding one sector."""

    payload: Optional[bytes]  # None on unrecoverable sector (-> erasure)
    ldpc_success: bool
    crc_success: bool
    iterations: int

    @property
    def success(self) -> bool:
        """True when the sector decoded and its CRC matched."""
        return self.payload is not None


class SectorCodec:
    """Encode/decode one sector's payload through LDPC + voxel modulation.

    Parameters
    ----------
    payload_bytes:
        User bytes per sector (before CRC + LDPC overhead).
    ldpc_rate:
        Target LDPC code rate; overhead is provisioned empirically against
        the expected read-time error rate (Section 5).
    constellation:
        Voxel modulation; defaults to 2 bits/voxel.
    """

    def __init__(
        self,
        payload_bytes: int = 128,
        ldpc_rate: float = 0.8,
        constellation: Optional[VoxelConstellation] = None,
        seed: int = 7,
    ):
        self.payload_bytes = payload_bytes
        self.constellation = constellation or VoxelConstellation()
        frame_bits = (payload_bytes + 4) * 8  # payload + CRC-32C
        # Dependent parity rows only ever *raise* realized k, so sizing n by
        # the target rate guarantees k >= frame_bits; assert to be safe.
        n = int(np.ceil(frame_bits / ldpc_rate))
        self.code = LdpcCode(n=n, rate=ldpc_rate, seed=seed)
        if self.code.k < frame_bits:
            raise ValueError(
                f"LDPC realized k={self.code.k} < frame bits {frame_bits}; "
                "lower the rate or shrink the payload"
            )
        self._frame_bits = frame_bits

    @property
    def symbols_per_sector(self) -> int:
        """Voxels needed to carry one sector's codeword."""
        bpv = self.constellation.bits_per_voxel
        return (self.code.n + bpv - 1) // bpv

    def encode(self, payload: bytes) -> np.ndarray:
        """Payload -> voxel symbols. Pads short payloads with zero bytes."""
        if len(payload) > self.payload_bytes:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds sector payload "
                f"{self.payload_bytes}"
            )
        padded = payload.ljust(self.payload_bytes, b"\x00")
        frame = append_checksum(padded)
        bits = np.unpackbits(np.frombuffer(frame, dtype=np.uint8))
        data_bits = np.zeros(self.code.k, dtype=np.uint8)
        data_bits[: bits.size] = bits
        codeword = self.code.encode(data_bits)
        return bits_to_symbols(codeword, self.constellation.bits_per_voxel)

    def llrs(self, posteriors: np.ndarray) -> np.ndarray:
        """Symbol posteriors -> per-bit LLRs, for one sector or a stack.

        ``posteriors`` has shape (..., symbols_per_sector, num_symbols);
        the result has shape (..., n), one LDPC codeword's LLRs per sector.
        """
        posteriors = np.asarray(posteriors)
        lead = posteriors.shape[:-2]
        llr = llr_from_symbol_posteriors(
            posteriors.reshape(-1, posteriors.shape[-1]),
            self.constellation.bits_per_voxel,
        )
        return llr.reshape(lead + (-1,))[..., : self.code.n]

    def decode_llrs(self, llr: np.ndarray, max_iterations: int = 50) -> SectorDecodeResult:
        """One sector's LLRs -> payload (or erasure): LDPC decode, then CRC."""
        result = self.code.decode(llr, max_iterations=max_iterations)
        return self._check_frame(result)

    def decode(self, posteriors: np.ndarray, max_iterations: int = 50) -> SectorDecodeResult:
        """Per-voxel symbol posteriors -> payload (or erasure).

        ``posteriors`` has shape (symbols_per_sector, num_symbols).
        """
        return self.decode_llrs(self.llrs(posteriors), max_iterations)

    def decode_hard(self, symbols: np.ndarray) -> SectorDecodeResult:
        """Hard-decision fallback from raw symbol decisions."""
        from .voxel import symbols_to_bits

        bits = symbols_to_bits(symbols, self.constellation.bits_per_voxel)[: self.code.n]
        return self._check_frame(self.code.decode_hard(bits))

    def _check_frame(self, result: LdpcResult) -> SectorDecodeResult:
        """CRC-check a decoded codeword's frame and unwrap its payload."""
        frame_bits = self.code.extract_data(result.bits)[: self._frame_bits]
        frame = np.packbits(frame_bits).tobytes()
        crc_ok, payload = verify_checksum(frame)
        if not (result.success and crc_ok):
            return SectorDecodeResult(None, result.success, crc_ok, result.iterations)
        return SectorDecodeResult(payload, True, True, result.iterations)
