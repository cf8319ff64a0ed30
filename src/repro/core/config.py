"""Configuration of a GSS instance.

The defaults follow Section VII-C of the paper: 16-bit fingerprints, 2 rooms
per bucket, address sequences of length ``r = 16`` and ``k = 16`` candidate
buckets (the paper uses ``r = k = 8`` for its two small datasets, which the
experiment runners set explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GSSConfig:
    """All tunables of the augmented GSS.

    Parameters
    ----------
    matrix_width:
        ``m``, the side length of the bucket matrix.  The paper recommends
        ``m ~ sqrt(|E|)`` so the matrix has about one bucket per edge.
    fingerprint_bits:
        Bit width of node fingerprints; ``F = 2 ** fingerprint_bits`` and the
        node hash range is ``M = m * F``.
    rooms:
        ``l``, number of independent rooms per bucket (Section V-B2).
    sequence_length:
        ``r``, number of alternative rows/columns per node under square
        hashing (Section V-A).
    candidate_buckets:
        ``k``, number of mapped buckets actually probed per edge when
        candidate-bucket sampling is enabled (Section V-B1).
    square_hashing:
        When False the sketch degenerates to a single mapped bucket per edge
        (the basic scheme), which is the "NoSquareHash" ablation of Figure 13.
    sampling:
        When False all ``r * r`` mapped buckets are probed in row-first order,
        the "GSS (no sampling)" row of Table I.
    keep_node_index:
        Whether to maintain the reverse hash table ``H(v) -> {original ids}``
        needed to report original node IDs from successor/precursor queries.
    seed:
        Seed of the node hash function, allowing independent sketches.
    backend:
        Matrix-storage backend: ``"python"`` (nested lists, zero
        dependencies — the default), ``"native"`` (bucket-major NumPy
        arrays with batched placement and neighbour scans compiled to a C
        kernel; ``"numpy"`` is its legacy name and resolves identically) or ``"auto"`` (native when
        the machine has NumPy and a C compiler, else python).  An explicit
        ``native``/``numpy`` request falls back to python with a warning
        when the kernel cannot run, or when the config is outside the
        kernel's envelope (``hash_range > 2^32`` or ``rooms >= 255``).  Both
        backends are observationally identical; the choice only affects
        speed and dependencies.
    """

    matrix_width: int
    fingerprint_bits: int = 16
    rooms: int = 2
    sequence_length: int = 16
    candidate_buckets: int = 16
    square_hashing: bool = True
    sampling: bool = True
    keep_node_index: bool = True
    seed: int = 0
    backend: str = "python"

    def __post_init__(self) -> None:
        if self.matrix_width <= 0:
            raise ValueError("matrix_width must be positive")
        if not 1 <= self.fingerprint_bits <= 32:
            raise ValueError("fingerprint_bits must be between 1 and 32")
        if self.rooms < 1:
            raise ValueError("rooms must be at least 1")
        if self.sequence_length < 1:
            raise ValueError("sequence_length must be at least 1")
        if self.candidate_buckets < 1:
            raise ValueError("candidate_buckets must be at least 1")
        if self.backend not in ("python", "numpy", "native", "auto"):
            raise ValueError(
                "backend must be one of 'python', 'numpy', 'native', 'auto'"
            )

    @property
    def fingerprint_range(self) -> int:
        """``F`` — the number of distinct fingerprint values."""
        return 1 << self.fingerprint_bits

    @property
    def hash_range(self) -> int:
        """``M = m * F`` — the value range of the node hash."""
        return self.matrix_width * self.fingerprint_range

    @property
    def effective_sequence_length(self) -> int:
        """``r`` actually used: 1 when square hashing is disabled."""
        return self.sequence_length if self.square_hashing else 1

    @property
    def effective_candidates(self) -> int:
        """``k`` actually probed per edge, capped at ``r * r``."""
        r = self.effective_sequence_length
        if not self.square_hashing:
            return 1
        if not self.sampling:
            return r * r
        return min(self.candidate_buckets, r * r)

    def matrix_memory_bytes(self) -> int:
        """Memory of the bucket matrix under the paper's C layout.

        Each room stores a fingerprint pair (2 * fingerprint_bits), an index
        pair (8 bits total — two 4-bit indices) and a 32-bit weight.  The
        value is used for the memory-matched comparisons against TCM, not as a
        measurement of Python object overhead.
        """
        room_bits = 2 * self.fingerprint_bits + 8 + 32
        total_bits = self.matrix_width * self.matrix_width * self.rooms * room_bits
        return total_bits // 8

    @classmethod
    def for_edge_count(
        cls,
        expected_edges: int,
        fingerprint_bits: int = 16,
        load_factor: float = 1.0,
        **overrides,
    ) -> "GSSConfig":
        """Size a sketch for an expected number of distinct edges.

        ``matrix_width`` is chosen so the matrix holds roughly
        ``expected_edges / load_factor`` rooms, following the paper's guidance
        ``m ~ sqrt(|E|)`` (with the default 2 rooms per bucket the width is
        ``sqrt(|E| / 2)``).
        """
        if expected_edges <= 0:
            raise ValueError("expected_edges must be positive")
        rooms = overrides.get("rooms", 2)
        width = max(4, int((expected_edges / (load_factor * rooms)) ** 0.5) + 1)
        return cls(matrix_width=width, fingerprint_bits=fingerprint_bits, **overrides)
