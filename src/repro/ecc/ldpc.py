"""Low-density parity-check codes for intra-sector error correction.

Section 5: "To protect against sector-level errors, we use low-density
parity-check (LDPC) codes, a common class of codes used in other storage
devices such as hard disk drives and SSDs."

We implement:

* a regular Gallager-style construction of a sparse parity-check matrix H
  with configurable column weight and rate;
* systematic encoding via an (approximately) lower-triangular transformation
  of H (Gaussian elimination over GF(2) to derive a generator matrix);
* soft-decision decoding with flooding min-sum belief propagation (check
  messages scaled by 0.8, which recovers most of sum-product's accuracy)
  over log-likelihood ratios, which consumes exactly the per-voxel
  probability distributions the ML decode stack produces (Section 3.2);
* a hard-decision fallback path (bit flipping) used when soft information
  is unavailable.

Decoding runs as whole-array numpy operations over a padded edge table
built once per code: column ``i`` of the table lists the bits of check ``i``
in ascending order, padded with a sentinel bit ``n`` that always reads 0.
Encoding works on rows of the generator packed into 64-bit words.

The decoder reports success only if all parity checks pass; callers pair it
with the per-sector CRC (Section 5) and escalate persistent failures to the
network-coding layers as sector erasures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class LdpcResult:
    """Outcome of an LDPC decode attempt."""

    bits: np.ndarray  # decoded codeword bits, shape (n,)
    success: bool  # all parity checks satisfied
    iterations: int  # BP iterations used


class LdpcCode:
    """A binary LDPC code with systematic encoding.

    Parameters
    ----------
    n:
        Codeword length in bits.
    rate:
        Target code rate (k/n). The actual rate may differ slightly when
        Gaussian elimination finds dependent rows in the random H.
    column_weight:
        Number of checks each bit participates in (Gallager regular code).
    seed:
        Seed for the H-matrix construction; the same (n, rate, column_weight,
        seed) always yields the same code, so writer and reader agree.
    """

    def __init__(self, n: int = 1024, rate: float = 0.875, column_weight: int = 3, seed: int = 7):
        if not 0 < rate < 1:
            raise ValueError("rate must be in (0, 1)")
        if column_weight < 2:
            raise ValueError("column_weight must be >= 2")
        self.n = n
        m_target = int(round(n * (1 - rate)))
        if m_target < column_weight:
            raise ValueError("code too short for requested rate/weight")
        rng = np.random.default_rng(seed)
        h_sparse = self._gallager_h(n, m_target, column_weight, rng)
        h_systematic, perm = self._to_systematic(h_sparse)
        self._perm = perm  # column permutation applied to H
        self.m = h_systematic.shape[0]
        self.k = self.n - self.m
        # Encoding uses the dense systematic form [A | I]: for codeword
        # c = [u | p], H c^T = A u^T + p^T = 0 so p = A @ u over GF(2).
        # Rows of A are packed into 64-bit words, so parity bit i is the
        # parity of (row i AND u): a few word operations per row.
        self._a_words = _pack_words(h_systematic[:, : self.k])  # (m, ceil(k/64))
        # Decoding (BP message passing + syndrome checks) uses the ORIGINAL
        # sparse H, column-permuted to match the systematic bit order. Its
        # row space contains the systematic form, so the codeword sets agree.
        self.h = h_sparse[:, perm]
        # Padded edge table, slot-major so per-check reductions run across
        # checks: column i holds check i's bits in ascending order, then
        # the sentinel bit n down to the widest check's degree.
        rows, cols = np.nonzero(self.h)  # edges in check-major order
        degree = np.bincount(rows, minlength=self.h.shape[0])
        slot = np.arange(rows.size) - np.repeat(np.cumsum(degree) - degree, degree)
        self._edge_cols = np.full((degree.max(), self.h.shape[0]), self.n)
        self._edge_cols[slot, rows] = cols
        self._edge_mask = self._edge_cols < self.n
        # Check-major edge list: each edge's bit and its flat table slot.
        self._edge_bits = cols
        self._edge_slots = slot * self.h.shape[0] + rows
        # A degree-1 check has no second minimum; it echoes min1 back.
        self._single_edge = degree == 1

    @property
    def actual_rate(self) -> float:
        """Realized k/n after removing dependent parity rows."""
        return self.k / self.n

    @staticmethod
    def _gallager_h(n: int, m: int, wc: int, rng: np.random.Generator) -> np.ndarray:
        """Regular-ish random sparse H: each column gets ``wc`` distinct rows."""
        h = np.zeros((m, n), dtype=np.uint8)
        for col in range(n):
            rows = rng.choice(m, size=wc, replace=False)
            h[rows, col] = 1
        # Ensure no empty check rows (they would be useless constraints).
        for row in range(m):
            if h[row].sum() == 0:
                cols = rng.choice(n, size=2, replace=False)
                h[row, cols] = 1
        return h

    @staticmethod
    def _to_systematic(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Put H into the form [A | I_m] via RREF plus a column permutation.

        Returns the transformed H and the column permutation ``perm`` such
        that output column j corresponds to input column ``perm[j]``.
        Dependent rows discovered during elimination are dropped (slightly
        raising the rate), which is standard for randomly constructed H.
        """
        h = h.copy() % 2
        m, n = h.shape
        pivot_cols = []
        row = 0
        for col in range(n):
            if row >= m:
                break
            pivot = None
            for r in range(row, m):
                if h[r, col]:
                    pivot = r
                    break
            if pivot is None:
                continue
            if pivot != row:
                h[[pivot, row]] = h[[row, pivot]]
            mask = h[:, col].astype(bool).copy()
            mask[row] = False
            h[mask] ^= h[row]
            pivot_cols.append(col)
            row += 1
        h = h[:row]  # drop dependent (now all-zero) rows
        pivot_set = set(pivot_cols)
        data_cols = [c for c in range(n) if c not in pivot_set]
        perm = np.array(data_cols + pivot_cols)
        return h[:, perm], perm

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode ``k`` data bits into an ``n``-bit systematic codeword."""
        data_bits = np.asarray(data_bits, dtype=np.uint8).ravel()
        if data_bits.size != self.k:
            raise ValueError(f"expected {self.k} data bits, got {data_bits.size}")
        row_words = np.bitwise_xor.reduce(self._a_words & _pack_words(data_bits), axis=1)
        return np.concatenate([data_bits, _word_parity(row_words)])

    def extract_data(self, codeword: np.ndarray) -> np.ndarray:
        """Recover the systematic data bits from a codeword."""
        return np.asarray(codeword, dtype=np.uint8)[: self.k]

    def syndrome(self, codeword: np.ndarray) -> np.ndarray:
        """H @ c mod 2; all-zero iff the word is a valid codeword."""
        bits = np.asarray(codeword, dtype=np.uint8)
        if bits.shape != (self.n,):
            raise ValueError(f"expected {self.n} bits, got shape {bits.shape}")
        return self._syndrome(np.append(bits, np.uint8(0)))

    def _syndrome(self, padded: np.ndarray) -> np.ndarray:
        """Syndrome of a word already extended with the sentinel bit n = 0."""
        return padded[self._edge_cols].sum(axis=0, dtype=np.uint8) & 1

    def is_codeword(self, codeword: np.ndarray) -> bool:
        """True iff ``codeword`` satisfies every parity check of H."""
        return not self.syndrome(codeword).any()

    def decode(
        self,
        llr: np.ndarray,
        max_iterations: int = 50,
    ) -> LdpcResult:
        """Min-sum decode (flooding, 0.8-scaled) from per-bit LLRs.

        ``llr[j] = log(P(bit j = 0) / P(bit j = 1))`` given the channel
        observation — e.g. derived from the ML decoder's per-voxel symbol
        posteriors. Positive LLR favours 0. Returns at once, with zero
        iterations, when the hard decision of ``llr`` is a codeword.
        """
        llr = np.asarray(llr, dtype=np.float64).ravel()
        if llr.size != self.n:
            raise ValueError(f"expected {self.n} LLRs, got {llr.size}")
        # Slot n is the sentinel every padded edge reads: it stays 0.0 (or
        # -0.0), so it decides 0, flips no parity and carries no sign.
        channel = np.append(llr, 0.0)
        hard = channel < 0
        if not self._syndrome(hard).any():
            return LdpcResult(hard[: self.n].astype(np.uint8), True, 0)
        table, mask = self._edge_cols, self._edge_mask
        checks = np.arange(table.shape[1])
        posterior = channel
        check_to_bit = np.zeros(table.shape)
        for iteration in range(1, max_iterations + 1):
            # Check node update: each edge gets the product of the other
            # edges' signs and the smallest of their magnitudes (min2 on
            # the check's own minimum edge), scaled by 0.8. A zero message
            # counts as positive. Ties between min1 and min2 cannot change
            # the output: tied entries have equal magnitudes.
            bit_to_check = posterior[table] - check_to_bit
            signs = np.where(bit_to_check < 0, -1.0, 1.0)
            total_sign = np.prod(signs, axis=0)
            mags = np.where(mask, np.abs(bit_to_check), np.inf)
            first = np.argmin(mags, axis=0)
            min1 = mags[first, checks]
            mags[first, checks] = np.inf
            min2 = np.where(self._single_edge, min1, mags.min(axis=0))
            out = np.where(mask, min1, 0.0)
            out[first, checks] = min2
            check_to_bit = (0.8 * total_sign) * signs * out
            # Bit node update: the posterior adds each bit's incoming check
            # messages in ascending check order, as a per-check loop would.
            posterior = channel.copy()
            np.add.at(posterior, self._edge_bits, check_to_bit.ravel()[self._edge_slots])
            hard = posterior < 0
            if not self._syndrome(hard).any():
                return LdpcResult(hard[: self.n].astype(np.uint8), True, iteration)
        return LdpcResult(hard[: self.n].astype(np.uint8), False, max_iterations)

    def decode_hard(self, received: np.ndarray, max_iterations: int = 50) -> LdpcResult:
        """Bit-flipping decode from hard bits (no soft information)."""
        bits = np.asarray(received, dtype=np.uint8).copy()
        for iteration in range(1, max_iterations + 1):
            syn = self.syndrome(bits)
            if not syn.any():
                return LdpcResult(bits, True, iteration - 1)
            # Count unsatisfied checks per bit and flip the worst offenders.
            unsat = self.h[syn.astype(bool)].sum(axis=0)
            worst = unsat.max()
            if worst == 0:
                break
            bits[unsat == worst] ^= 1
        return LdpcResult(bits, not self.syndrome(bits).any(), max_iterations)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a bit array (its values mod 2) into uint64 words."""
    width = -(-bits.shape[-1] // 64) * 64
    padded = np.zeros(bits.shape[:-1] + (width,), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits & 1
    return np.packbits(padded, axis=-1).view(np.uint64)


def _word_parity(words: np.ndarray) -> np.ndarray:
    """Parity (0/1 as uint8) of the set bits of each uint64 word."""
    for shift in (32, 16, 8, 4):
        words = words ^ (words >> np.uint64(shift))
    return ((np.uint64(0x6996) >> (words & np.uint64(0xF))) & np.uint64(1)).astype(np.uint8)


def llr_from_bit_error_prob(bits: np.ndarray, p: float) -> np.ndarray:
    """LLRs for hard bits observed through a BSC with crossover ``p``."""
    p = min(max(p, 1e-12), 1 - 1e-12)
    magnitude = np.log((1 - p) / p)
    return np.where(np.asarray(bits) == 0, magnitude, -magnitude)


def llr_from_symbol_posteriors(posteriors: np.ndarray, bits_per_symbol: int = 2) -> np.ndarray:
    """Convert per-voxel symbol posteriors to per-bit LLRs.

    ``posteriors`` has shape (num_voxels, 2**bits_per_symbol); row v is the
    ML decoder's probability distribution over symbol values for voxel v.
    Bits are taken MSB-first within each symbol. Output length is
    num_voxels * bits_per_symbol.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    num_symbols = 1 << bits_per_symbol
    if posteriors.shape[1] != num_symbols:
        raise ValueError(f"expected {num_symbols} columns, got {posteriors.shape[1]}")
    eps = 1e-12
    llrs = np.empty((posteriors.shape[0], bits_per_symbol))
    symbols = np.arange(num_symbols)
    for b in range(bits_per_symbol):
        bit_of_symbol = (symbols >> (bits_per_symbol - 1 - b)) & 1
        p0 = posteriors[:, bit_of_symbol == 0].sum(axis=1)
        p1 = posteriors[:, bit_of_symbol == 1].sum(axis=1)
        llrs[:, b] = np.log((p0 + eps) / (p1 + eps))
    return llrs.ravel()
