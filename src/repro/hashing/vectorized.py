"""Vectorized batch hashing over NumPy arrays.

Every function here is the array counterpart of a scalar primitive in
:mod:`repro.hashing.hash_functions` or :mod:`repro.hashing.linear_congruence`
and is **bit-for-bit identical** to it: hashed batches and the native matrix
backend rely on that equality so a sketch built through the vectorized
pipeline answers every query exactly like one built through the scalar path (the differential tests
in ``tests/test_vectorized_hashing.py`` assert it input-by-input).

The FNV-1a loop runs over an ``(n, max_len)`` byte matrix built with
``np.frombuffer`` — one masked vector operation per byte *position* instead of
one Python operation per byte — and the splitmix64 finalizer and the
square-hashing LCG values used to recover addresses are plain uint64 /
int64 array arithmetic (unsigned overflow wraps modulo 2^64, exactly like the
``& _MASK64`` in the scalar code).

NumPy is an optional dependency: importing this module never fails AND never
imports NumPy — availability is detected with ``importlib.util.find_spec`` so
pure-Python users (the zero-dependency default) do not pay NumPy's import
cost just because it happens to be installed.  The actual ``import numpy``
runs lazily on first vectorized use.  :data:`NUMPY_AVAILABLE` tells callers
whether the vectorized path is usable; setting the environment variable
``REPRO_DISABLE_NUMPY`` forces it off (handy for exercising the no-NumPy
code paths on a machine that has NumPy installed).
"""

from __future__ import annotations

import os
from importlib.util import find_spec
from typing import Sequence

from repro.hashing.hash_functions import (
    _FNV_OFFSET,
    _FNV_PRIME,
    _MASK64,
    _count_hashes,
    _splitmix64,
    hash_key,
)
from repro.hashing.linear_congruence import LinearCongruentialSequence

NUMPY_AVAILABLE = (
    not os.environ.get("REPRO_DISABLE_NUMPY") and find_spec("numpy") is not None
)

#: Lazily populated module handle; ``None`` until the first vectorized call.
np = None


def load_numpy():
    """Import NumPy on first use and cache the module handle."""
    global np
    if np is None:
        require_numpy()
        import numpy

        np = numpy
    return np


def require_numpy() -> None:
    """Raise a helpful error when the vectorized path is used without NumPy."""
    if not NUMPY_AVAILABLE:
        raise RuntimeError(
            "NumPy is required for the vectorized hashing pipeline; "
            "install it with `pip install repro-gss[numpy]` or use the "
            "pure-Python backend"
        )


# -- 64-bit mixing ---------------------------------------------------------


def splitmix64_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorized :func:`~repro.hashing.hash_functions._splitmix64`."""
    load_numpy()
    values = values.astype(np.uint64, copy=True)
    values += np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def hash_bytes_array(keys: Sequence[bytes], seed: int = 0) -> "np.ndarray":
    """Vectorized FNV-1a + splitmix64 over a batch of byte strings.

    Equals ``[hash_bytes(k, seed) for k in keys]`` element-wise.  Keys are
    grouped by byte length so each group packs into a dense ``(n, length)``
    uint8 matrix and the FNV loop runs one unmasked vector operation per byte
    *column* — no per-byte Python work, no boolean-index overhead.
    """
    load_numpy()
    count = len(keys)
    _count_hashes(count)
    initial = (_FNV_OFFSET ^ _splitmix64(seed)) & _MASK64
    state = np.full(count, initial, dtype=np.uint64)
    if count == 0:
        return state
    prime = np.uint64(_FNV_PRIME)
    if count <= 512:
        # Small batches: group by length with a dict — cheaper than the
        # sort-based grouping below, whose fixed costs dominate tiny inputs.
        groups: dict = {}
        for index, key in enumerate(keys):
            groups.setdefault(len(key), []).append(index)
        for length, members in groups.items():
            if length == 0:
                continue
            block = np.frombuffer(
                b"".join([keys[index] for index in members]), dtype=np.uint8
            ).reshape(len(members), length)
            group_state = np.full(len(members), initial, dtype=np.uint64)
            for column in range(length):
                group_state = (group_state ^ block[:, column].astype(np.uint64)) * prime
            state[members] = group_state
        return splitmix64_array(state)
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=count)
    order = np.argsort(lengths, kind="stable")
    ordered_lengths = lengths[order]
    boundaries = np.nonzero(np.diff(ordered_lengths))[0] + 1
    group_starts = [0, *boundaries.tolist(), count]
    order_list = order.tolist()
    for begin, end in zip(group_starts, group_starts[1:]):
        members = order_list[begin:end]
        length = int(ordered_lengths[begin])
        if length == 0:
            continue
        block = np.frombuffer(
            b"".join([keys[index] for index in members]), dtype=np.uint8
        ).reshape(len(members), length)
        group_state = np.full(len(members), initial, dtype=np.uint64)
        for column in range(length):
            group_state = (group_state ^ block[:, column].astype(np.uint64)) * prime
        state[members] = group_state
    return splitmix64_array(state)


def hash_strings_array(keys: Sequence[str], seed: int = 0) -> "np.ndarray":
    """Vectorized :func:`~repro.hashing.hash_functions.hash_string`."""
    return hash_bytes_array([key.encode("utf-8") for key in keys], seed)


def hash_ints_array(keys: Sequence[int], seed: int = 0) -> "np.ndarray":
    """Vectorized integer-key path of :func:`~repro.hashing.hash_functions.hash_key`."""
    load_numpy()
    count = len(keys)
    _count_hashes(count)
    masked = np.fromiter((key & _MASK64 for key in keys), dtype=np.uint64, count=count)
    return splitmix64_array(masked ^ np.uint64(_splitmix64(seed ^ 0xA5A5A5A5)))


def hash_keys_array(keys: Sequence, seed: int = 0) -> "np.ndarray":
    """Vectorized :func:`~repro.hashing.hash_functions.hash_key` over a batch.

    Dispatches on the (homogeneous) key type: all-``str`` and all-``bytes``
    batches go through the byte-matrix FNV, all-``int`` batches through the
    splitmix64 path, and anything mixed or exotic falls back to the scalar
    ``hash_key`` per item (still returning one uint64 array).
    """
    load_numpy()
    if not isinstance(keys, (list, tuple)):
        keys = list(keys)
    if all(isinstance(key, str) for key in keys):
        return hash_strings_array(keys, seed)
    if all(isinstance(key, bytes) for key in keys):
        return hash_bytes_array(keys, seed)
    if all(isinstance(key, int) for key in keys):
        return hash_ints_array(keys, seed)
    return np.fromiter(
        (hash_key(key, seed) for key in keys), dtype=np.uint64, count=len(keys)
    )


def node_hashes_array(keys: Sequence, value_range: int, seed: int = 0) -> "np.ndarray":
    """Vectorized :class:`~repro.hashing.hash_functions.NodeHasher` batch call.

    Returns ``H(key) % value_range`` for every key, as uint64.
    """
    if value_range <= 0:
        raise ValueError("value_range must be positive")
    return hash_keys_array(keys, seed) % np.uint64(value_range)


# -- square-hashing address recovery --------------------------------------


def lcg_values_at(
    seeds: "np.ndarray",
    indices: "np.ndarray",
    lcg: LinearCongruentialSequence = LinearCongruentialSequence(),
) -> "np.ndarray":
    """Vectorized :meth:`~repro.hashing.linear_congruence.LinearCongruentialSequence.value_at`.

    ``indices`` are 1-based, exactly like the scalar method.
    """
    load_numpy()
    if len(indices) and int(indices.min()) < 1:
        raise ValueError("index is 1-based and must be >= 1")
    current = seeds.astype(np.int64, copy=True) % lcg.modulus
    result = np.zeros(len(seeds), dtype=np.int64)
    max_index = int(indices.max()) if len(indices) else 0
    for step in range(1, max_index + 1):
        current = (lcg.multiplier * current + lcg.increment) % lcg.modulus
        at_step = indices == step
        if at_step.any():
            result[at_step] = current[at_step]
    return result
