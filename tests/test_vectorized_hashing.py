"""Bit-for-bit equivalence of the vectorized hashing pipeline.

The NumPy matrix backend is only correct if every array primitive in
``repro.hashing.vectorized`` returns exactly what its scalar counterpart
returns, input by input.  These tests drive both sides with the same values —
including the nasty ones (empty strings, non-ASCII bytes, 64-bit boundary
integers, negative integers) — and assert equality element-wise.

The module also pins down the ``hash_key`` bytes-path fix (HASH_VERSION 2):
raw bytes are hashed directly instead of through the latin-1 -> utf-8 round
trip that double-encoded bytes >= 0x80.
"""

from __future__ import annotations

import pytest

from repro.hashing.vectorized import NUMPY_AVAILABLE

if not NUMPY_AVAILABLE:
    pytest.skip("NumPy not installed", allow_module_level=True)

import numpy as np

from repro.hashing.hash_functions import (
    HASH_VERSION,
    _splitmix64,
    hash_bytes,
    hash_key,
    hash_string,
)
from repro.hashing.linear_congruence import LinearCongruentialSequence, recover_address
from repro.hashing.vectorized import (
    NUMPY_AVAILABLE,
    hash_bytes_array,
    hash_ints_array,
    hash_keys_array,
    hash_strings_array,
    lcg_values_at,
    node_hashes_array,
    splitmix64_array,
)

STRING_KEYS = ["", "a", "node-42", "n" * 100, "naïve-ünïcode-node", "x"]
BYTES_KEYS = [b"", b"a", b"ip-10.0.0.1", bytes(range(256)), b"\xff\xfe\x00", b"x" * 77]
INT_KEYS = [0, 1, -1, 7, -(2**63), 2**63 - 1, 2**64 - 1, 2**64, 123456789123456789]


class TestBytesPathFix:
    def test_hash_version_bumped(self):
        assert HASH_VERSION == 2

    def test_bytes_hash_raw_not_latin1_roundtrip(self):
        data = b"\xc3\xa9\xff"
        # v1 behaviour: FNV over the UTF-8 re-encoding of the latin-1 decode,
        # which double-encodes every byte >= 0x80.
        v1 = hash_string(data.decode("latin-1"))
        assert hash_key(data) == hash_bytes(data)
        assert hash_key(data) != v1

    def test_ascii_bytes_values_unchanged_from_v1(self):
        data = b"ip-10.0.0.1"
        assert hash_key(data) == hash_string(data.decode("latin-1"))

    def test_str_and_ascii_bytes_agree(self):
        assert hash_key(b"node-7") == hash_key("node-7")


class TestVectorizedEqualsScalar:
    def test_numpy_available_flag(self):
        assert NUMPY_AVAILABLE is True

    def test_splitmix64(self):
        values = [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15, 12345678901234567]
        array = splitmix64_array(np.array(values, dtype=np.uint64))
        assert array.tolist() == [_splitmix64(value) for value in values]

    @pytest.mark.parametrize("seed", [0, 1, 97, 2**31])
    def test_hash_strings(self, seed):
        result = hash_strings_array(STRING_KEYS, seed)
        assert result.tolist() == [hash_string(key, seed) for key in STRING_KEYS]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_hash_bytes(self, seed):
        result = hash_bytes_array(BYTES_KEYS, seed)
        assert result.tolist() == [hash_bytes(key, seed) for key in BYTES_KEYS]

    def test_hash_bytes_large_batch_grouping(self):
        # Exercise the argsort-based grouping path (> 512 keys).
        keys = [f"node-{index % 97}-{'x' * (index % 9)}".encode() for index in range(1200)]
        assert hash_bytes_array(keys).tolist() == [hash_bytes(key) for key in keys]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_hash_ints(self, seed):
        result = hash_ints_array(INT_KEYS, seed)
        assert result.tolist() == [hash_key(key, seed) for key in INT_KEYS]

    def test_hash_keys_dispatch_and_mixed_fallback(self):
        assert hash_keys_array(STRING_KEYS).tolist() == [hash_key(k) for k in STRING_KEYS]
        assert hash_keys_array(BYTES_KEYS).tolist() == [hash_key(k) for k in BYTES_KEYS]
        assert hash_keys_array(INT_KEYS).tolist() == [hash_key(k) for k in INT_KEYS]
        mixed = ["a", 7, b"bytes", ("t", 1), 3.5, None]
        assert hash_keys_array(mixed).tolist() == [hash_key(k) for k in mixed]

    def test_node_hashes_match_node_hasher(self):
        from repro.hashing.hash_functions import NodeHasher

        hasher = NodeHasher(value_range=4096, seed=11)
        keys = [f"n{i}" for i in range(200)]
        assert node_hashes_array(keys, 4096, 11).tolist() == [hasher(k) for k in keys]

    def test_node_hashes_rejects_bad_range(self):
        with pytest.raises(ValueError):
            node_hashes_array(["a"], 0)


class TestVectorizedLCG:
    lcg = LinearCongruentialSequence()

    def test_lcg_values_at_and_recover(self):
        fps = np.array([3, 250, 0, 65535, 9], dtype=np.int64)
        indices = np.array([1, 4, 2, 8, 1], dtype=np.int64)
        values = lcg_values_at(fps, indices, self.lcg)
        for position in range(len(fps)):
            assert values[position] == self.lcg.value_at(int(fps[position]), int(indices[position]))
        observed = np.array([7, 12, 0, 30, 19], dtype=np.int64)
        # Address recovery as the native backend does it (Theorem 1).
        recovered = (observed - values) % 31
        for position in range(len(fps)):
            assert recovered[position] == recover_address(
                int(observed[position]), int(fps[position]), int(indices[position]), 31, self.lcg
            )

    def test_lcg_values_at_rejects_zero_index(self):
        with pytest.raises(ValueError):
            lcg_values_at(np.array([1]), np.array([0]), self.lcg)
