"""Ingest batches: the one item rule, the one weight rule, and the text
encoding both kernel entry points read.

Every batched ingest path of a GSS and of a sharded deployment takes a
batch of ``(source, destination, weight)`` items under one rule,
:func:`triple_tokens`: every item is an exact three-element sequence and
every weight passes :func:`check_weights`, or the whole batch is refused
(``ValueError``) before any state changes.  Neither needs NumPy.

:func:`text_blob` is the kernel's input format for string node IDs, shared
by the native GSS backend (``gss_ingest_text_batch``) and the sharded
deployment's kernel front end (``gss_route_text_batch``): one NUL-joined
UTF-8 blob of the IDs in interleaved stream order, read beside a float64
weight column (:func:`packed_weights`, or a NumPy array).  Both kernels
count the blob's separators, so an ID holding a NUL is refused there.
:func:`text_batch` cuts a batch into both.

:class:`HashSpec` names the hash family a summary places edges under: the
shard handshake of a sharded deployment reports it, and both of its front
ends (:mod:`repro.cluster.front_end`) hash every batch under it, once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from typing import Collection, List, Optional, Sequence, Tuple

from repro.hashing.vectorized import load_numpy

__all__ = [
    "HashSpec",
    "check_weights",
    "packed_weights",
    "text_batch",
    "text_blob",
    "triple_tokens",
    "weight_column",
]


#: Weight types taken without a per-item check: the common case costs one
#: pass of ``type`` over the batch, run in C.
_PLAIN_WEIGHTS = frozenset((float, int))


def check_weights(weights: Collection) -> None:
    """Raise :class:`ValueError` unless every weight is a real number.

    The one weight rule of every ingest path, backend and deployment:
    ``int``, ``float``, ``bool``, ``Fraction`` and NumPy reals are taken;
    ``str``, ``bytes``, ``Decimal``, ``complex`` and ``None`` are refused,
    even where ``float()`` or NumPy would convert them.  Callers check a
    whole batch before they change any state.
    """
    if not _PLAIN_WEIGHTS.issuperset(map(type, weights)):
        for weight in weights:
            if not isinstance(weight, Real):
                raise ValueError(f"weight {weight!r} is not a real number")


def weight_column(weights: Sequence, vectorized: bool):
    """``weights``, checked by :func:`check_weights`, as a float64 array
    (``vectorized``, needs NumPy) or as a list of floats."""
    check_weights(weights)
    if vectorized:
        np = load_numpy()
        return np.asarray(weights, dtype=np.float64)
    return [float(weight) for weight in weights]


class CheckedTriples(list):
    """A batch whose items are known to be exact ``(source, destination,
    weight)`` tuples: :class:`~repro.api.StreamSession` checks each chunk
    it passes on untouched and hands it over as one, so
    :func:`triple_tokens` does not check the item shape again (the
    weights it still checks)."""


def triple_tokens(items: List) -> Tuple[List, List]:
    """Cut ``(source, destination, weight)`` items into ``(tokens,
    weights)``, two lists, under the one item rule.

    ``tokens`` holds the node IDs in interleaved stream order (item ``i``'s
    source at ``2i``, its destination at ``2i + 1``), so a token index
    names the caller's own node object; ``weights`` holds the items'
    weights as given.  Raises :class:`ValueError` unless every item is an
    exact three-element sequence — taken as met for
    :class:`CheckedTriples` — and :func:`check_weights` passes.  All of it
    runs in C loops.
    """
    try:
        if items and type(items) is not CheckedTriples and set(map(len, items)) != {3}:
            raise TypeError
        tokens = list(chain.from_iterable(items))
    except TypeError:
        raise ValueError(
            "a batch item is not a (source, destination, weight) triple"
        ) from None
    weights = tokens[2::3]
    check_weights(weights)
    del tokens[2::3]
    return tokens, weights


def packed_weights(weights: Sequence) -> bytes:
    """Real ``weights`` (checked by :func:`check_weights`) as a native
    float64 column in one ``bytes`` object, the kernels' weight input;
    converts each weight as ``float()`` and ``numpy.float64`` do."""
    return struct.pack(f"{len(weights)}d", *weights)


def text_batch(items: List) -> Tuple[List, object, Optional[bytes]]:
    """Cut ``(source, destination, weight)`` triples into the kernel's text
    encoding (needs NumPy): ``(tokens, weights, blob)``.

    ``tokens`` and the item rule are :func:`triple_tokens`'s; ``weights``
    is a float64 array and ``blob`` is :func:`text_blob` of the tokens.
    """
    tokens, weights = triple_tokens(items)
    np = load_numpy()
    return tokens, np.asarray(weights, dtype=np.float64), text_blob(tokens)


def text_blob(tokens: List) -> Optional[bytes]:
    """``tokens`` NUL-joined and UTF-8 encoded, or ``None`` when a token is
    not a ``str`` or cannot be encoded.  A token holding a NUL makes the
    join ambiguous; the kernel reading the blob counts its separators and
    refuses it."""
    try:
        return "\x00".join(tokens).encode("utf-8")
    except (TypeError, ValueError):  # UnicodeEncodeError is a ValueError
        return None


@dataclass(frozen=True)
class HashSpec:
    """The hash function family a summary places edges under.

    ``seed`` and ``hash_range`` pin the sketch node hash ``H(v) =
    hash_key(v, seed) % hash_range`` (Definition 5's ``M``); ``routing_seed``
    optionally adds the *independent* full-width routing hash of the
    sharded deployments, which sketch placement does not depend on.
    """

    seed: int
    hash_range: int
    routing_seed: Optional[int] = None

    def with_routing(self, routing_seed: Optional[int]) -> "HashSpec":
        """This spec with a different routing seed (sketch hash unchanged)."""
        return HashSpec(self.seed, self.hash_range, routing_seed)
