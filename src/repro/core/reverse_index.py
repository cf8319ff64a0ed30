"""Reverse node index: from sketch hash ``H(v)`` back to original node IDs.

The paper stores ``<H(v), v>`` pairs in a hash table "to make this mapping
procedure reversible" — successor/precursor queries return sketch hashes and
the table converts them to original node identifiers.  Several original nodes
may share one hash value (that is exactly the collision the accuracy analysis
studies), so each hash maps to the *set* of originals.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set


class NodeIndex:
    """Bidirectional node table: ``original id <-> H(v)``."""

    def __init__(self) -> None:
        self._originals_of: Dict[int, Set[Hashable]] = {}
        self._hash_of: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._hash_of)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._hash_of

    def record(self, node: Hashable, node_hash: int) -> None:
        """Remember that ``node`` hashes to ``node_hash``.

        Re-recording a node under the hash it already has is a harmless
        no-op.  Re-recording it under a *different* hash — possible when
        merging sketches built with different seeds — would silently corrupt
        reverse lookups, so it raises ``ValueError`` instead.
        """
        existing = self._hash_of.get(node)
        if existing is not None:
            if existing != node_hash:
                raise ValueError(
                    f"node {node!r} is already registered under hash {existing} "
                    f"and cannot be re-registered under {node_hash}; this "
                    "usually means sketches built with different hash seeds "
                    "are being combined"
                )
            return
        self._hash_of[node] = node_hash
        self._originals_of.setdefault(node_hash, set()).add(node)

    def record_new_many(self, pairs: Iterable) -> None:
        """Record many ``(node, node_hash)`` pairs in one call.

        Bulk variant of :meth:`record` for batch-ingestion backends that
        discover a batch's first-seen nodes all at once.  Pair for pair it
        does what :meth:`record` does — re-recording under the same hash is
        a no-op, a conflicting hash is refused — except that the first
        conflict raises ``ValueError`` only after every other pair has been
        recorded: a refused batch still leaves each of its nodes registered
        (under its first hash), which is what a sender that sends each node
        once relies on.
        """
        hash_of = self._hash_of
        originals_of = self._originals_of
        conflict = None
        for node, node_hash in pairs:
            existing = hash_of.setdefault(node, node_hash)
            if existing != node_hash:
                if conflict is None:
                    conflict = (node, existing, node_hash)
                continue
            bucket = originals_of.get(node_hash)
            if bucket is None:
                originals_of[node_hash] = {node}
            else:
                bucket.add(node)
        if conflict is not None:
            node, existing, node_hash = conflict
            raise ValueError(
                f"node {node!r} is already registered under hash {existing} "
                f"and cannot be re-registered under {node_hash}; this "
                "usually means sketches built with different hash seeds "
                "are being combined"
            )

    def get(self, node: Hashable) -> Optional[int]:
        """Return the recorded hash of ``node``, or ``None`` if unseen."""
        return self._hash_of.get(node)

    def hash_of(self, node: Hashable) -> int:
        """Return the recorded hash of ``node``; raises ``KeyError`` if unseen."""
        return self._hash_of[node]

    def originals(self, node_hash: int) -> Set[Hashable]:
        """All original node IDs that share ``node_hash`` (empty set if none)."""
        return set(self._originals_of.get(node_hash, ()))

    def expand(self, node_hashes: Iterable[int]) -> Set[Hashable]:
        """Union of the original IDs behind each hash in ``node_hashes``."""
        result: Set[Hashable] = set()
        for node_hash in node_hashes:
            result |= self._originals_of.get(node_hash, set())
        return result

    def known_nodes(self) -> List[Hashable]:
        """Every original node ID recorded so far."""
        return list(self._hash_of)

    def collision_count(self) -> int:
        """Number of original nodes sharing a hash with at least one other node."""
        return sum(
            len(originals)
            for originals in self._originals_of.values()
            if len(originals) > 1
        )

    def memory_bytes(self) -> int:
        """Memory of the table under a C layout (hash + pointer per entry)."""
        return len(self._hash_of) * 16
