"""GSS — the Graph Stream Sketch (the paper's core contribution).

Two implementations are provided:

* :class:`~repro.core.basic.GSSBasic` — the conceptually simple scheme of
  Section IV: one mapped bucket per edge, one room per bucket, left-over edges
  spill to the adjacency-list buffer.
* :class:`~repro.core.gss.GSS` — the full augmented algorithm of Section V:
  square hashing (``r`` alternative rows/columns per node), candidate-bucket
  sampling (``k`` probes per edge) and multiple rooms per bucket, all
  individually switchable so the paper's ablations (Figure 13, Table I) can be
  reproduced.

Beyond the two sketches, the subpackage provides the deployment wrappers the
paper's introduction motivates: :class:`~repro.core.windowed.WindowedGSS`
(sliding-window summaries), :class:`~repro.core.undirected.UndirectedGSS`
and sketch merging (:mod:`repro.core.merge`).  Source-partitioned shards, as
in distributed graph systems, are :class:`repro.cluster.ShardedSummary`,
in-process or worker processes.
"""

from repro.core.config import GSSConfig
from repro.core.basic import GSSBasic
from repro.core.gss import GSS
from repro.core.buffer import LeftoverBuffer
from repro.core.reverse_index import NodeIndex
from repro.core.undirected import UndirectedGSS
from repro.core.windowed import WindowedGSS
from repro.core.ensemble import GSSEnsemble
from repro.core.merge import compatible_for_merge, merge_into, merge_sketches

__all__ = [
    "GSSEnsemble",
    "GSSConfig",
    "GSSBasic",
    "GSS",
    "LeftoverBuffer",
    "NodeIndex",
    "UndirectedGSS",
    "WindowedGSS",
    "compatible_for_merge",
    "merge_into",
    "merge_sketches",
]
