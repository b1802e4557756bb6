"""Equivalence oracle for the array LDPC encoder and decoder.

``reference_decode``, ``reference_syndrome`` and ``reference_encode`` are
the original per-check loop decoder, dense ``H @ c`` syndrome and dense
``A @ u`` encoder, kept here (and only here) as the specification. The
production code must return identical codewords, and identical ``bits``,
``success`` and ``iterations`` for every decode: any drift would change
which sectors decode, and in how many iterations, on every committed
baseline.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ecc.ldpc import LdpcCode, LdpcResult, llr_from_bit_error_prob


def reference_syndrome(code: LdpcCode, codeword: np.ndarray) -> np.ndarray:
    """Dense H @ c mod 2."""
    return (code.h @ np.asarray(codeword, dtype=np.uint8)) % 2


def reference_encode(code: LdpcCode, spec, data_bits: np.ndarray) -> np.ndarray:
    """Dense systematic encode: c = [u | A u mod 2], A rebuilt from ``spec``."""
    n, rate, weight, seed = spec
    rng = np.random.default_rng(seed)
    h_sparse = LdpcCode._gallager_h(n, int(round(n * (1 - rate))), weight, rng)
    h_systematic, _perm = LdpcCode._to_systematic(h_sparse)
    a = h_systematic[:, : code.k]
    data_bits = np.asarray(data_bits, dtype=np.uint8)
    return np.concatenate([data_bits, ((a @ data_bits) % 2).astype(np.uint8)])


def reference_decode(code: LdpcCode, llr: np.ndarray, max_iterations: int = 50) -> LdpcResult:
    """Per-check flooding min-sum with 0.8 scaling (the original loop)."""
    check_neighbors = [np.flatnonzero(code.h[i]) for i in range(code.h.shape[0])]
    llr = np.asarray(llr, dtype=np.float64).ravel()
    bit_to_check = [llr[nbrs].copy() for nbrs in check_neighbors]
    hard = (llr < 0).astype(np.uint8)
    if not reference_syndrome(code, hard).any():
        return LdpcResult(hard, True, 0)
    check_to_bit = [np.zeros(len(nbrs)) for nbrs in check_neighbors]
    for iteration in range(1, max_iterations + 1):
        for i, nbrs in enumerate(check_neighbors):
            msgs = bit_to_check[i]
            signs = np.sign(msgs)
            signs[signs == 0] = 1.0
            total_sign = np.prod(signs)
            mags = np.abs(msgs)
            order = np.argsort(mags)
            min1 = mags[order[0]]
            min2 = mags[order[1]] if len(mags) > 1 else min1
            out = np.where(np.arange(len(mags)) == order[0], min2, min1)
            check_to_bit[i] = 0.8 * total_sign * signs * out
        posterior = llr.copy()
        for i, nbrs in enumerate(check_neighbors):
            posterior[nbrs] += check_to_bit[i]
        hard = (posterior < 0).astype(np.uint8)
        if not reference_syndrome(code, hard).any():
            return LdpcResult(hard, True, iteration)
        for i, nbrs in enumerate(check_neighbors):
            bit_to_check[i] = posterior[nbrs] - check_to_bit[i]
    return LdpcResult(hard, False, max_iterations)


#: (n, rate, column_weight, seed). The 32-bit code has checks of degree 1;
#: the 64- and 256-bit codes have uneven row degrees; 1320 bits is the
#: service's sector code (128-byte payload + CRC at rate 0.8).
CODES = {
    "n32-w2": (32, 0.5, 2, 0),
    "n64": (64, 0.8, 3, 0),
    "n256": (256, 0.75, 3, 1),
    "n1320": (1320, 0.8, 3, 7),
}
_BUILT = {}


def _code(name: str) -> LdpcCode:
    if name not in _BUILT:
        n, rate, weight, seed = CODES[name]
        _BUILT[name] = LdpcCode(n=n, rate=rate, column_weight=weight, seed=seed)
    return _BUILT[name]


def noisy_llrs(code: LdpcCode, rng: np.random.Generator, flip_share: float, zero_share: float):
    """LLRs of a random codeword through a BSC, quantised so ties occur,
    with a share of entries forced to exactly 0.0 (and a few to -0.0)."""
    codeword = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
    noisy = codeword ^ (rng.random(code.n) < flip_share).astype(np.uint8)
    llr = llr_from_bit_error_prob(noisy, max(flip_share, 1e-3))
    llr = np.round(llr * rng.uniform(0.2, 1.5, code.n), 1)
    llr[rng.random(code.n) < zero_share] = 0.0
    llr[rng.random(code.n) < zero_share / 4] = -0.0
    return llr


def assert_same(code: LdpcCode, llr: np.ndarray, max_iterations: int) -> LdpcResult:
    got = code.decode(llr, max_iterations=max_iterations)
    want = reference_decode(code, llr, max_iterations=max_iterations)
    assert got.bits.dtype == want.bits.dtype == np.uint8
    assert np.array_equal(got.bits, want.bits)
    assert got.success == want.success
    assert got.iterations == want.iterations
    return got


class TestStructure:
    def test_degree_one_checks_are_covered(self):
        assert (_code("n32-w2").h.sum(axis=1) == 1).any()

    def test_row_degrees_are_uneven(self):
        for name in ("n64", "n256"):
            degree = _code(name).h.sum(axis=1)
            assert degree.min() < degree.max()

    @pytest.mark.parametrize("name", sorted(CODES))
    def test_syndrome_matches_dense_product(self, name):
        code = _code(name)
        rng = np.random.default_rng(11)
        for _ in range(20):
            word = rng.integers(0, 2, code.n).astype(np.uint8)
            got = code.syndrome(word)
            assert got.dtype == np.uint8
            assert np.array_equal(got, reference_syndrome(code, word))
            assert code.is_codeword(word) == (not reference_syndrome(code, word).any())

    @pytest.mark.parametrize("name", sorted(CODES))
    def test_encode_matches_dense_product(self, name):
        code = _code(name)
        rng = np.random.default_rng(12)
        words = [np.zeros(code.k, np.uint8), np.ones(code.k, np.uint8)]
        words += [rng.integers(0, 2, code.k).astype(np.uint8) for _ in range(20)]
        for data in words:
            got = code.encode(data)
            assert got.dtype == np.uint8
            assert np.array_equal(got, reference_encode(code, CODES[name], data))
            assert not reference_syndrome(code, got).any()

    def test_syndrome_rejects_wrong_length(self):
        code = _code("n64")
        with pytest.raises(ValueError):
            code.syndrome(np.zeros(code.n - 1, dtype=np.uint8))


class TestDecoderMatchesReference:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        name=st.sampled_from(["n32-w2", "n64", "n256"]),
        seed=st.integers(0, 2**32 - 1),
        flip_share=st.sampled_from([0.0, 0.01, 0.04, 0.1, 0.3]),
        zero_share=st.sampled_from([0.0, 0.05, 0.3]),
        max_iterations=st.sampled_from([0, 1, 3, 50]),
    )
    def test_small_codes(self, name, seed, flip_share, zero_share, max_iterations):
        code = _code(name)
        rng = np.random.default_rng(seed)
        assert_same(code, noisy_llrs(code, rng, flip_share, zero_share), max_iterations)

    def test_degree_one_checks(self):
        # A degree-1 check echoes its bit's own magnitude back (min2 falls
        # back to min1); most noisy words on this code need that rule.
        code = _code("n32-w2")
        rng = np.random.default_rng(32)
        iterated = 0
        for _ in range(100):
            result = assert_same(code, noisy_llrs(code, rng, 0.1, 0.05), 50)
            iterated += result.iterations > 1
        assert iterated > 50

    @pytest.mark.parametrize("seed", range(6))
    def test_sector_code(self, seed):
        code = _code("n1320")
        rng = np.random.default_rng([seed, 1320])
        for flip_share in (0.0, 0.005, 0.02):
            assert_same(code, noisy_llrs(code, rng, flip_share, 0.02), 50)

    def test_all_zero_llrs(self):
        # Every bit decides 0 and the all-zero word is a codeword.
        for name in CODES:
            code = _code(name)
            result = assert_same(code, np.zeros(code.n), 50)
            assert result.success and result.iterations == 0

    def test_iteration_cap_is_hit(self):
        rng = np.random.default_rng(5)
        capped = 0
        for name in ("n64", "n256"):
            code = _code(name)
            for _ in range(10):
                result = assert_same(code, noisy_llrs(code, rng, 0.3, 0.05), 5)
                capped += not result.success
        assert capped > 0

    def test_deep_budget(self):
        # The service's deepest rung: 250 iterations on words too noisy
        # for the default budget, plus one sector-code word at the cap.
        rng = np.random.default_rng(250)
        exhausted = 0
        for name in ("n64", "n256"):
            code = _code(name)
            for _ in range(4):
                result = assert_same(code, noisy_llrs(code, rng, 0.12, 0.05), 250)
                exhausted += result.iterations == 250
        code = _code("n1320")
        result = assert_same(code, noisy_llrs(code, rng, 0.25, 0.05), 250)
        assert not result.success and result.iterations == 250
        assert exhausted > 0
