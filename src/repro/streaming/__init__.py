"""Graph-stream model: edges, streams, windows and stream IO.

A graph stream (Definition 1 in the paper) is an unbounded sequence of items
``(s, d; t; w)``: a directed edge from ``s`` to ``d`` with timestamp ``t`` and
weight ``w``.  The items collectively form a *streaming graph* whose edge
weights are the running sum of the item weights; negative weights model
deletions.
"""

from repro.streaming.batch import HashSpec
from repro.streaming.edge import StreamEdge
from repro.streaming.stream import GraphStream, StreamStatistics
from repro.streaming.window import SlidingWindow, tumbling_windows
from repro.streaming.io import read_edge_file, write_edge_file
from repro.streaming.transforms import (
    deduplicate,
    filter_by_nodes,
    filter_by_weight,
    filter_edges,
    map_nodes,
    map_weights,
    merge_streams,
    reverse_edges,
    sample_stream,
    split_by,
    split_by_time,
)

__all__ = [
    "HashSpec",
    "StreamEdge",
    "GraphStream",
    "StreamStatistics",
    "SlidingWindow",
    "tumbling_windows",
    "read_edge_file",
    "write_edge_file",
    "filter_edges",
    "filter_by_weight",
    "filter_by_nodes",
    "sample_stream",
    "map_nodes",
    "map_weights",
    "reverse_edges",
    "merge_streams",
    "split_by",
    "split_by_time",
    "deduplicate",
]
