"""Reverse node index: from sketch hash ``H(v)`` back to original node IDs.

The paper stores ``<H(v), v>`` pairs in a hash table "to make this mapping
procedure reversible" — successor/precursor queries return sketch hashes and
the table converts them to original node identifiers.  Several original nodes
may share one hash value (that is exactly the collision the accuracy analysis
studies), so each hash maps to the *set* of originals.

Two implementations share one interface:

* :class:`NodeIndex` — two Python dicts (node -> hash, hash -> set of
  nodes).  The python GSS backend, :class:`~repro.core.basic.GSSBasic` and
  the TCM baseline keep every node here.
* :class:`KernelNodeIndex` — a native GSS's index.  Its string IDs live only
  in the compiled kernel's node table (the ID's UTF-8 bytes in an arena plus
  a 16-byte entry, chained by hash), the table the kernel's text ingest
  resolves every token through, so each string node is stored once.  Only
  IDs the kernel cannot hold — non-``str`` IDs, strings UTF-8 cannot encode,
  and strings past the table's 4 GiB arena — go to a :class:`NodeIndex`,
  each stamped with the kernel's node count when it was recorded, so
  :meth:`KernelNodeIndex.known_nodes` keeps the global first-seen order.
  String IDs come back as plain ``str`` objects decoded from the arena.
"""

from __future__ import annotations

import ctypes
from array import array
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hashing.hash_functions import _count_hashes

#: Modes of the kernel's ``gss_node_resolve``.
_LOOKUP, _RESOLVE, _RECORD = 0, 1, 2


def _conflict(node: Hashable, existing: int, node_hash: int) -> ValueError:
    return ValueError(
        f"node {node!r} is already registered under hash {existing} "
        f"and cannot be re-registered under {node_hash}; this "
        "usually means sketches built with different hash seeds "
        "are being combined"
    )


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
                raise _conflict(node, existing, node_hash)
            return
        self._hash_of[node] = node_hash
        self._originals_of.setdefault(node_hash, set()).add(node)

    def record_new_many(self, pairs: Iterable) -> None:
        """Record many ``(node, node_hash)`` pairs in one call.

        Bulk variant of :meth:`record` for restores, merges and shard
        messages.  Pair for pair it does what :meth:`record` does —
        re-recording under the same hash is a no-op, a conflicting hash is
        refused — except that the first conflict raises ``ValueError`` only
        after every other pair has been recorded: a refused batch still
        leaves each of its nodes registered (under its first hash), which is
        what a sender that sends each node once relies on.
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
            raise _conflict(*conflict)

    def resolve(self, nodes: Sequence[Hashable], hasher) -> List[int]:
        """The hash of each of the distinct ``nodes``: the recorded one, or
        ``hasher(node)`` for a node the index lacks, which is then recorded.

        The new nodes are recorded in order once all are hashed, so a node
        ``hasher`` refuses changes nothing.
        """
        hashes = list(map(self._hash_of.get, nodes))
        fresh = [node for node, node_hash in zip(nodes, hashes) if node_hash is None]
        if not fresh:
            return hashes
        fresh_hashes = dict(zip(fresh, map(hasher, fresh)))
        self.record_new_many(fresh_hashes.items())
        return [fresh_hashes[node] if node_hash is None else node_hash
                for node, node_hash in zip(nodes, hashes)]

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

    def items(self) -> List[Tuple[Hashable, int]]:
        """Every ``(node, H(v))`` pair, in first-seen order."""
        return list(self._hash_of.items())

    def known_nodes(self) -> List[Hashable]:
        """Every original node ID recorded so far, in first-seen order."""
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


def _encoded(nodes: List[str]) -> Tuple[bytes, array]:
    """``nodes`` UTF-8 encoded back to back, and each one's byte length;
    raises ``UnicodeEncodeError`` for a string UTF-8 cannot encode."""
    joined = "".join(nodes)
    if joined.isascii():
        return joined.encode("ascii"), array("q", map(len, nodes))
    encoded = [node.encode("utf-8") for node in nodes]
    return b"".join(encoded), array("q", map(len, encoded))


class KernelNodeIndex:
    """:class:`NodeIndex`'s interface over a native GSS's kernel node table.

    ``backend`` is the sketch's
    :class:`~repro.core.backends.NativeMatrixBackend`, whose kernel context
    holds the table; the kernel's text ingest records nodes there itself.
    Looking up, recording or resolving (hashing the new IDs of) any number
    of string IDs is one ``gss_node_resolve`` call; :meth:`expand` is one
    ``gss_node_ids`` call that writes the IDs behind a set of hashes into
    one reused buffer, decoded and split once.  The IDs the kernel cannot
    hold live in a :class:`NodeIndex` (see the module docstring).
    """

    def __init__(self, backend) -> None:
        self._backend = backend  # owns, and keeps alive, the kernel context
        lib = backend._lib
        self._lib = lib
        self._ctx = backend._ctx
        self._fnv_state0 = backend._fnv_state0
        self._hash_range = backend._hash_range
        self._node_ids = lib.gss_node_ids
        self._others = NodeIndex()
        #: The kernel's node count when each of ``_others``' nodes was
        #: recorded, in their (first-seen) order.
        self._stamps: List[int] = []
        #: Whether a recorded ID holds a NUL, which then cannot separate IDs.
        self._has_nul = False
        self._conflict = ctypes.c_int64(-1)
        self._buffers = self._id_buffers(0, 0)  # grown by the first answer

    # -- kernel calls ------------------------------------------------------

    @staticmethod
    def _id_buffers(ids: int, size: int) -> tuple:
        """``gss_node_ids`` output buffers for ``ids`` IDs in ``size`` bytes:
        ``(its node_ids_out, that struct's address, a view of the bytes,
        the lengths, the hashes)``."""
        from repro.core._native import node_ids_out

        if not size:
            out = node_ids_out()  # no room: NULL buffers, zero capacities
            return out, ctypes.addressof(out), None, array("q"), array("Q")
        text = bytearray(size)
        lengths = array("q", bytes(8 * ids))
        hashes = array("Q", bytes(8 * ids))
        out = node_ids_out(
            bytes=ctypes.addressof(ctypes.c_char.from_buffer(text)),
            bytes_cap=size,
            lengths=lengths.buffer_info()[0],
            hashes=hashes.buffer_info()[0],
            ids_cap=ids,
        )
        return out, ctypes.addressof(out), memoryview(text), lengths, hashes

    def _ids(self, hashes: Optional[array]) -> Tuple[List[str], array]:
        """The IDs recorded under the distinct ``hashes`` (``None``: every
        ID, in first-seen order) and the array holding their hashes.

        A query that outgrows the kept buffers replaces them with ones at
        least twice their size; an export that does uses buffers of its
        own.
        """
        address, count = (None, -1) if hashes is None else (hashes.buffer_info()[0], len(hashes))
        buffers = self._buffers
        size = self._node_ids(self._ctx, address, count, buffers[1])
        if size < 0:
            out = buffers[0]
            if hashes is None:
                buffers = self._id_buffers(out.count, out.len)
            else:
                buffers = self._id_buffers(max(out.count, 2 * out.ids_cap, 64),
                                           max(out.len, 2 * out.bytes_cap, 1024))
                self._buffers = buffers
            size = self._node_ids(self._ctx, address, count, buffers[1])
        if not size:
            return [], buffers[4]
        view = buffers[2]
        if not self._has_nul:
            return str(view[: size - 1], "utf-8").split("\x00"), buffers[4]
        nodes = []
        start = 0
        for length in buffers[3][: buffers[0].count]:
            nodes.append(str(view[start : start + length], "utf-8"))
            start += length + 1
        return nodes, buffers[4]

    def _table(self, mode: int, blob: bytes, lengths: array, hashes=None) -> tuple:
        """One ``gss_node_resolve`` call: ``(status, hashes, ids)``."""
        count = len(lengths)
        hashes = array("Q", bytes(8 * count) if hashes is None else hashes)
        ids = array("q", bytes(8 * count))
        status = self._lib.gss_node_resolve(
            self._ctx, mode, blob, len(blob), lengths.buffer_info()[0], count,
            self._fnv_state0, self._hash_range,
            hashes.buffer_info()[0], ids.buffer_info()[0], ctypes.addressof(self._conflict),
        )
        if status == -1:  # pragma: no cover - allocation failure
            raise MemoryError("native node table allocation failed")
        if status >= 0 and mode != _LOOKUP and b"\x00" in blob:
            self._has_nul = True
        return status, hashes, ids

    def _partition(self, nodes: Sequence) -> Tuple[List[int], bytes, array]:
        """The positions of the ``nodes`` the kernel table can hold (strings
        UTF-8 can encode), those nodes encoded back to back, and their
        byte lengths."""
        if set(map(type, nodes)) <= {str}:
            at = range(len(nodes))
        else:
            at = [position for position, node in enumerate(nodes) if isinstance(node, str)]
        try:
            blob, lengths = _encoded([nodes[position] for position in at])
        except UnicodeEncodeError:
            at = [position for position in at if self._token(nodes[position]) is not None]
            blob, lengths = _encoded([nodes[position] for position in at])
        return at, blob, lengths

    def _record_others(self, pairs, fresh: List[int], kernel_at: List[int], ids, before: int) -> None:
        """Record ``pairs[p]`` in the Python container for each position
        ``p`` of ``fresh`` (ascending), stamped with the kernel's node count
        at that point of the batch: ``before`` plus the kernel's nodes
        recorded at earlier positions (``ids`` of ``kernel_at``)."""
        kernel = iter(zip(kernel_at, ids))
        position, node_id = next(kernel, (None, 0))
        stamp = before
        for at in fresh:
            while position is not None and position < at:
                stamp = max(stamp, node_id)
                position, node_id = next(kernel, (None, 0))
            self._stamps.append(stamp)
            self._others.record(*pairs[at])

    # -- NodeIndex interface -------------------------------------------------

    def __len__(self) -> int:
        return self._lib.gss_node_count(self._ctx) + len(self._others)

    def __contains__(self, node: Hashable) -> bool:
        return self.get(node) is not None

    def record(self, node: Hashable, node_hash: int) -> None:
        """:meth:`NodeIndex.record`."""
        if self._token(node) is None:
            existing = self._others.get(node)
            if existing is not None:  # known: no stamp, no kernel call
                if existing != node_hash:
                    raise _conflict(node, existing, node_hash)
                return
        self.record_new_many(((node, node_hash),))

    @staticmethod
    def _token(node: Hashable) -> Optional[bytes]:
        """The UTF-8 bytes of a string ID, or ``None`` when the kernel
        table cannot hold ``node``."""
        if not isinstance(node, str):
            return None
        try:
            return node.encode("utf-8")
        except UnicodeEncodeError:
            return None

    def record_new_many(self, pairs: Iterable) -> None:
        """:meth:`NodeIndex.record_new_many`: string IDs are recorded in the
        kernel table in one call."""
        pairs = list(pairs)
        nodes = [node for node, _ in pairs]
        kernel_at, blob, lengths = self._partition(nodes)
        before = self._lib.gss_node_count(self._ctx)
        conflicts = []
        status, hashes, ids = 0, (), ()
        if kernel_at:
            supplied = [pairs[position][1] for position in kernel_at]
            status, hashes, ids = self._table(_RECORD, blob, lengths, supplied)
            if status >= 0 and len(kernel_at) == len(pairs):  # all in the kernel
                if self._conflict.value >= 0:
                    node, node_hash = pairs[self._conflict.value]
                    raise _conflict(node, self.get(node), node_hash)
                return
            if status == -2:  # the arena is full: only known nodes stay here
                status, hashes, ids = self._table(_LOOKUP, blob, lengths)
                for position, node_hash, node_id in zip(kernel_at, hashes, ids):
                    if node_id and node_hash != pairs[position][1]:
                        conflicts.append((position, node_hash))
            elif self._conflict.value >= 0:
                position = kernel_at[self._conflict.value]
                conflicts.append((position, self.get(nodes[position])))
        in_kernel = dict(zip(kernel_at, ids))
        fresh = []
        seen: Dict[Hashable, int] = {}
        for position, (node, node_hash) in enumerate(pairs):
            if in_kernel.get(position, 0):
                continue
            existing = seen.get(node, self._others.get(node))
            if existing is None:
                seen[node] = node_hash
                fresh.append(position)
            elif existing != node_hash:
                conflicts.append((position, existing))
        self._record_others(pairs, fresh, kernel_at, ids, before)
        if conflicts:
            position, existing = min(conflicts)
            raise _conflict(nodes[position], existing, pairs[position][1])

    def resolve(self, nodes: Sequence[Hashable], hasher) -> List[int]:
        """:meth:`NodeIndex.resolve`: string IDs resolve in the kernel table
        in one call, which hashes the new ones itself; ``hasher`` hashes only
        the IDs it cannot hold, before the table changes."""
        hashes = list(map(self._others.get, nodes)) if len(self._others) else [None] * len(nodes)
        if None not in hashes:
            return hashes  # all held on the Python side: no kernel call
        kernel_at, blob, lengths = self._partition(nodes)
        if len(kernel_at) == len(nodes):
            status, resolved, _ = self._table(_RESOLVE, blob, lengths)
            if status >= 0:
                _count_hashes(status)
                return resolved.tolist()
        in_kernel = set(kernel_at)
        fresh = [position for position, node_hash in enumerate(hashes)
                 if node_hash is None and position not in in_kernel]
        for position in fresh:
            hashes[position] = hasher(nodes[position])
        before = self._lib.gss_node_count(self._ctx)
        ids = ()
        if kernel_at:
            status, resolved, ids = self._table(_RESOLVE, blob, lengths)
            if status == -2:  # the arena is full: new strings go to _others
                status, resolved, ids = self._table(_LOOKUP, blob, lengths)
                for position, node_id in zip(kernel_at, ids):
                    if not node_id and hashes[position] is None:
                        hashes[position] = hasher(nodes[position])
                        fresh.append(position)
                fresh.sort()
            else:
                _count_hashes(status)
            for position, node_hash, node_id in zip(kernel_at, resolved, ids):
                if node_id:
                    hashes[position] = node_hash
        self._record_others(list(zip(nodes, hashes)), fresh, kernel_at, ids, before)
        return hashes

    def get(self, node: Hashable) -> Optional[int]:
        """Return the recorded hash of ``node``, or ``None`` if unseen."""
        token = self._token(node)
        if token is not None:
            _, found, ids = self._table(_LOOKUP, token, array("q", (len(token),)))
            if ids[0]:
                return found[0]
        return self._others.get(node)

    def hash_of(self, node: Hashable) -> int:
        """Return the recorded hash of ``node``; raises ``KeyError`` if unseen."""
        node_hash = self.get(node)
        if node_hash is None:
            raise KeyError(node)
        return node_hash

    def originals(self, node_hash: int) -> Set[Hashable]:
        """All original node IDs that share ``node_hash`` (empty set if none)."""
        return self.expand((node_hash,))

    def expand(self, node_hashes: Iterable[int]) -> Set[Hashable]:
        """Union of the original IDs behind each hash in ``node_hashes``
        (one kernel call; a repeated hash only repeats its IDs)."""
        hashes = array("Q", node_hashes)
        if not hashes:
            return set()
        result = set(self._ids(hashes)[0])
        if len(self._others):
            result |= self._others.expand(hashes)
        return result

    def items(self) -> List[Tuple[Hashable, int]]:
        """Every ``(node, H(v))`` pair, in first-seen order."""
        nodes, hashes = self._ids(None)
        pairs = list(zip(nodes, hashes))
        if not self._stamps:
            return pairs
        merged = []
        start = 0
        for pair, stamp in zip(self._others.items(), self._stamps):
            merged.extend(pairs[start:stamp])
            merged.append(pair)
            start = stamp
        merged.extend(pairs[start:])
        return merged

    def known_nodes(self) -> List[Hashable]:
        """Every original node ID recorded so far, in first-seen order."""
        return [node for node, _ in self.items()]

    def collision_count(self) -> int:
        """Number of original nodes sharing a hash with at least one other node."""
        counts = Counter(node_hash for _, node_hash in self.items())
        return sum(count for count in counts.values() if count > 1)

    def memory_bytes(self) -> int:
        """Memory of the table under a C layout (hash + pointer per entry)."""
        return len(self) * 16
