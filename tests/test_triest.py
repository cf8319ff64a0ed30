"""Unit tests for the TRIEST streaming triangle counters."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.baselines.triest import TriestBase, TriestImproved
from repro.exact.adjacency_list import AdjacencyListGraph
from repro.queries.primitives import consume_stream
from repro.queries.triangle import count_triangles
from repro.streaming.edge import StreamEdge
from repro.streaming.stream import GraphStream


def triangle_stream(triangle_count: int) -> GraphStream:
    """A stream made of ``triangle_count`` disjoint triangles."""
    edges = []
    for index in range(triangle_count):
        a, b, c = f"a{index}", f"b{index}", f"c{index}"
        edges.extend(
            [StreamEdge(a, b), StreamEdge(b, c), StreamEdge(c, a)]
        )
    return GraphStream(edges)


class TestTriestBase:
    def test_rejects_tiny_reservoir(self):
        with pytest.raises(ValueError):
            TriestBase(reservoir_size=3)

    def test_exact_when_reservoir_holds_everything(self):
        stream = triangle_stream(20)
        triest = TriestBase(reservoir_size=1000, seed=1)
        triest.ingest(stream)
        assert triest.triangle_estimate() == 20

    def test_duplicate_and_self_loop_edges_ignored(self):
        triest = TriestBase(reservoir_size=100, seed=1)
        triest.add_edge("a", "b")
        triest.add_edge("a", "b")
        triest.add_edge("b", "a")  # same undirected edge
        triest.add_edge("a", "a")  # self loop
        assert triest._stream_length == 1

    def test_estimate_roughly_correct_with_sampling(self):
        stream = triangle_stream(150)  # 450 edges, 150 triangles
        shuffled = list(stream)
        random.Random(7).shuffle(shuffled)
        estimates = []
        for seed in range(5):
            triest = TriestBase(reservoir_size=250, seed=seed)
            triest.ingest(GraphStream(shuffled))
            estimates.append(triest.triangle_estimate())
        mean = sum(estimates) / len(estimates)
        assert 50 <= mean <= 300  # unbiased but high-variance at this sample rate

    def test_memory_model(self):
        assert TriestBase(reservoir_size=100).memory_bytes() == 1600

    def test_estimate_independent_of_string_hash_seed(self):
        # Reservoir evictions must not depend on set iteration order, which
        # PYTHONHASHSEED changes from one process to the next for str keys.
        script = textwrap.dedent(
            """
            import random
            from repro.baselines.triest import TriestBase, TriestImproved
            from repro.streaming.edge import StreamEdge
            from repro.streaming.stream import GraphStream

            edges = []
            for index in range(120):
                a, b, c = f"a{index}", f"b{index}", f"c{index}"
                edges += [StreamEdge(a, b), StreamEdge(b, c), StreamEdge(c, a)]
            random.Random(11).shuffle(edges)
            for cls in (TriestBase, TriestImproved):
                counter = cls(reservoir_size=200, seed=1)
                counter.ingest(GraphStream(edges))
                print(repr(counter.triangle_estimate()))
            """
        )
        src_dir = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for hash_seed in ("0", "95"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, env=env, text=True, timeout=60, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestTriestImproved:
    def test_exact_when_reservoir_holds_everything(self):
        stream = triangle_stream(25)
        triest = TriestImproved(reservoir_size=1000, seed=2)
        triest.ingest(stream)
        assert triest.triangle_estimate() == 25

    def test_lower_variance_than_base(self):
        stream = triangle_stream(120)
        shuffled = list(stream)
        random.Random(11).shuffle(shuffled)

        def spread(cls):
            estimates = []
            for seed in range(6):
                counter = cls(reservoir_size=200, seed=seed)
                counter.ingest(GraphStream(shuffled))
                estimates.append(counter.triangle_estimate())
            mean = sum(estimates) / len(estimates)
            return sum((value - mean) ** 2 for value in estimates) / len(estimates)

        assert spread(TriestImproved) <= spread(TriestBase) * 2.0

    def test_agrees_with_exact_counting_on_real_stream(self, small_stream):
        unique = small_stream.unique_edges()
        exact = consume_stream(AdjacencyListGraph(), unique)
        truth = count_triangles(exact, unique.nodes())
        triest = TriestImproved(reservoir_size=len(unique), seed=3)
        triest.ingest(unique)
        assert triest.triangle_estimate() == pytest.approx(truth, rel=0.01)
