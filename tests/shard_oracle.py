"""An independent reference for the sharded GSS deployments.

:class:`ShardOracle` is what ``partitioned-gss`` (in-process shards) and
``sharded-gss`` (worker processes) must answer like: ``n`` plain
:class:`~repro.core.gss.GSS` sketches, each stream item applied one at a
time to shard ``hash_key(source, seed=97) % n`` by a scalar hash, precursor
answers unioned and in-weights summed.  It shares no routing, batching,
handle or merging code with :class:`~repro.cluster.ShardedSummary`, so the
two deployments cannot agree with it by sharing a bug.

:func:`partitioned_gss` builds the in-process deployment whose shards use a
given :class:`~repro.core.config.GSSConfig`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.api import build
from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.hashing.hash_functions import hash_key

#: The ``SketchSpec`` params that carry a :class:`GSSConfig` field.
GSS_PARAM_FIELDS = (
    "matrix_width",
    "fingerprint_bits",
    "rooms",
    "sequence_length",
    "candidate_buckets",
    "square_hashing",
    "sampling",
    "keep_node_index",
)


def gss_params(config: GSSConfig) -> Dict:
    """Spec params that build shards configured exactly like ``config``."""
    return {name: getattr(config, name) for name in GSS_PARAM_FIELDS}


def partitioned_gss(config: GSSConfig, partitions: int, routing_seed: int = 97):
    """A ``partitioned-gss`` deployment of ``partitions`` shards of ``config``."""
    return build(
        "partitioned-gss",
        seed=config.seed,
        backend=config.backend,
        params={
            **gss_params(config),
            "partitions": partitions,
            "routing_seed": routing_seed,
        },
    )


class ShardOracle:
    """``shards`` GSS sketches behind scalar source-cut routing."""

    def __init__(self, config: GSSConfig, shards: int, routing_seed: int = 97) -> None:
        self.shards: List[GSS] = [GSS(config) for _ in range(shards)]
        self.routing_seed = routing_seed

    def shard_of(self, node: Hashable) -> int:
        return hash_key(node, seed=self.routing_seed) % len(self.shards)

    def update(self, source: Hashable, destination: Hashable, weight: float = 1.0) -> None:
        self.shards[self.shard_of(source)].update(source, destination, weight)

    def update_many(self, items: Iterable) -> None:
        for source, destination, weight in items:
            self.update(source, destination, weight)

    def edge_query(self, source: Hashable, destination: Hashable) -> Optional[float]:
        return self.shards[self.shard_of(source)].edge_query(source, destination)

    def successor_query(self, node: Hashable) -> Set[Hashable]:
        return self.shards[self.shard_of(node)].successor_query(node)

    def precursor_query(self, node: Hashable) -> Set[Hashable]:
        found: Set[Hashable] = set()
        for shard in self.shards:
            found |= shard.precursor_query(node)
        return found

    def node_out_weight(self, node: Hashable) -> float:
        return self.shards[self.shard_of(node)].node_out_weight(node)

    def node_in_weight(self, node: Hashable) -> float:
        return sum(shard.node_in_weight(node) for shard in self.shards)

    def shard_loads(self) -> List[int]:
        return [shard.matrix_edge_count + shard.buffer_edge_count for shard in self.shards]
