"""Unit tests for the TCM baseline."""

import pytest

from repro.baselines.tcm import TCM, tcm_successor_union
from repro.queries.primitives import consume_stream


class TestTCMConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TCM(width=0)
        with pytest.raises(ValueError):
            TCM(width=4, depth=0)

    def test_memory_model(self):
        tcm = TCM(width=10, depth=4)
        assert tcm.memory_bytes() == 4 * 10 * 10 * 4

    def test_with_memory_of(self):
        tcm = TCM.with_memory_of(10_000, memory_ratio=8.0, depth=4)
        assert tcm.memory_bytes() <= 8 * 10_000 * 1.1
        assert tcm.memory_bytes() >= 8 * 10_000 * 0.5


class TestTCMQueries:
    def test_edge_query_never_underestimates(self, paper_stream):
        tcm = consume_stream(TCM(width=16, depth=2), paper_stream)
        for key, weight in paper_stream.aggregate_weights().items():
            assert tcm.edge_query(*key) >= weight

    def test_absent_edge_with_large_width(self):
        tcm = TCM(width=1024, depth=4)
        tcm.update("a", "b", 1.0)
        assert tcm.edge_query("x", "y") is None

    def test_small_width_collides(self):
        # With a 2x2 matrix every edge shares cells: estimates blow up.
        tcm = TCM(width=2, depth=1)
        for index in range(50):
            tcm.update(f"s{index}", f"d{index}", 1.0)
        assert tcm.edge_query("s0", "d0") > 1.0

    def test_successors_superset_of_truth(self, paper_stream):
        tcm = consume_stream(TCM(width=64, depth=4), paper_stream)
        truth = paper_stream.successors()
        for node, successors in truth.items():
            assert successors <= tcm.successor_query(node)

    def test_precursors_superset_of_truth(self, paper_stream):
        tcm = consume_stream(TCM(width=64, depth=4), paper_stream)
        truth = paper_stream.precursors()
        for node, precursors in truth.items():
            assert precursors <= tcm.precursor_query(node)

    def test_more_sketches_do_not_hurt_precision(self, small_stream):
        truth = small_stream.successors()
        nodes = small_stream.nodes()[:60]
        single = consume_stream(TCM(width=96, depth=1, seed=3), small_stream)
        multi = consume_stream(TCM(width=96, depth=4, seed=3), small_stream)

        def precision_of(tcm):
            from repro.metrics.accuracy import average_precision

            return average_precision(
                [(truth.get(node, set()), tcm.successor_query(node)) for node in nodes]
            )

        assert precision_of(multi) >= precision_of(single) - 1e-9

    def test_node_weights(self, paper_stream):
        tcm = consume_stream(TCM(width=64, depth=4), paper_stream)
        out_truth = paper_stream.node_out_weights()
        for node, weight in out_truth.items():
            assert tcm.node_out_weight(node) >= weight

    def test_update_count(self, paper_stream):
        tcm = consume_stream(TCM(width=8, depth=2), paper_stream)
        assert tcm.update_count == len(paper_stream)

    def test_successor_union_helper(self, paper_stream):
        tcm = consume_stream(TCM(width=32, depth=2), paper_stream)
        sets = tcm_successor_union(tcm, "a")
        assert sets["intersection"] <= sets["union"]
        assert paper_stream.successors()["a"] <= sets["intersection"]
