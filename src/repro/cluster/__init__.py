"""``repro.cluster`` — sharded deployment of the summaries.

* :class:`ShardedSummary` — hash-partitions edges by source node over N
  shards, in-process or worker processes, hashes each batch once (one
  kernel call per all-string batch, see :mod:`repro.cluster.front_end`)
  and pipelines each shard's hash columns into its ``ingest_columns``
  path, and serves
  capability-gated fan-out queries (edge / successor / node-out-weight route
  to one shard; precursor and node-in-weight scatter-gather);
* :mod:`repro.cluster.checkpoint` — whole-cluster checkpoint/recovery built
  on the shards' ``to_dict`` snapshots (per-shard files + a manifest),
  resumable mid-stream;
* :mod:`repro.cluster.worker` — the shard request protocol, applied by a
  worker process or, in-process, directly;
* :mod:`repro.cluster.lifecycle` — graceful SIGINT/SIGTERM teardown
  (:func:`install_signal_handlers`: drain → checkpoint → close) for
  script-style cluster users; the network front end in :mod:`repro.serve`
  layers asyncio signal handling over the same
  :meth:`ShardedSummary.shutdown` drain path.

The cluster registers in the :mod:`repro.api` factory as ``"sharded-gss"``
(worker processes; parameters: ``workers``, ``routing_seed``,
``batch_size`` plus every GSS parameter) and as ``"partitioned-gss"``
(in-process shards; ``partitions``, ``routing_seed`` plus every GSS
parameter), so ``StreamSession``, the conformance laws, the CLI's
``--sketch``/``--workers`` flags and the tab1 throughput rows drive it like
any other summary.
"""

from repro.cluster.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from repro.cluster.lifecycle import DEFAULT_SHUTDOWN_SIGNALS, install_signal_handlers
from repro.cluster.sharded import DEFAULT_ROUTING_SEED, ClusterError, ShardedSummary

__all__ = [
    "CheckpointError",
    "ClusterError",
    "DEFAULT_ROUTING_SEED",
    "DEFAULT_SHUTDOWN_SIGNALS",
    "ShardedSummary",
    "install_signal_handlers",
    "load_checkpoint",
    "read_manifest",
    "save_checkpoint",
]
