"""Protocol-conformance suite: every registered sketch, one set of laws.

Each sketch in the :mod:`repro.api` registry is built at the same fixed
memory budget, fed the same deterministic stream through
:class:`StreamSession`, and held to the contract its ``capabilities()``
declares:

* supported queries obey the one-sided error guarantees (estimates never
  below the truth, neighbour sets never missing a true neighbour);
* unsupported queries raise :class:`UnsupportedQueryError` — and the
  corresponding capability flag is ``False``;
* batched ingestion matches scalar ingestion;
* serializable sketches round-trip exactly through ``to_dict``/``from_dict``;
* the deprecated sentinel shims warn.
"""

from __future__ import annotations

import pytest

from repro.api import (
    GraphSummary,
    SketchSpec,
    StreamSession,
    UnsupportedQueryError,
    build,
    from_dict,
    list_sketches,
    sketch_info,
)
from repro.streaming.stream import stream_from_pairs

#: Fixed equal-memory budget every sketch is built at.
BUDGET_BYTES = 32 * 1024

#: Deterministic insert-only stream with duplicate edges and a hub node.
PAIRS = [
    (f"n{i % 7}", f"n{(i * 3 + 1) % 11}") for i in range(300)
] + [("hub", f"n{i % 11}") for i in range(60)]
WEIGHTS = [float(1 + (i % 4)) for i in range(len(PAIRS))]


def make_stream():
    return stream_from_pairs(PAIRS, WEIGHTS, name="conformance")


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


#: Every law runs once on each leg: the registry's default backend, plus the
#: compiled ``native`` backend when a kernel can actually be built here (the
#: leg disappears — not fails — under REPRO_DISABLE_NATIVE or without
#: a C toolchain, mirroring the CI matrix).
BACKEND_LEGS = ["default"] + (["native"] if _native_ready() else [])


def spec_for(name: str, seed: int = 7, backend: str = "default") -> SketchSpec:
    params = {}
    kwargs = {}
    if name == "windowed-gss":
        # A window far longer than the stream: nothing expires, so the
        # windowed wrapper must agree with the plain aggregation laws.
        params["window_span"] = 1e9
    if backend != "default" and name != "gss-basic":
        # gss-basic is by definition the pure-Python reference structure;
        # every other sketch takes the backend request (counter sketches map
        # native onto their numpy storage via resolve_counter_backend_name).
        kwargs["backend"] = backend
    return SketchSpec(
        name, memory_bytes=BUDGET_BYTES, seed=seed, params=params, **kwargs
    )


def built_and_fed(name: str, seed: int = 7, backend: str = "default"):
    summary = build(spec_for(name, seed=seed, backend=backend))
    StreamSession(summary, batch_size=64).feed(make_stream())
    return summary


@pytest.fixture(scope="module")
def truth():
    stream = make_stream()
    return {
        "weights": stream.aggregate_weights(),
        "successors": stream.successors(),
        "precursors": stream.precursors(),
        "out_weights": stream.node_out_weights(),
        "nodes": stream.nodes(),
    }


@pytest.fixture(scope="module", params=BACKEND_LEGS)
def summaries(request):
    """One fed instance per registered sketch, shared across the suite.

    Parametrized over the backend legs, so every law below also holds with
    the GSS family running on the compiled native kernel.
    """
    backend = request.param
    return {name: built_and_fed(name, backend=backend) for name in list_sketches()}


@pytest.mark.parametrize("name", list_sketches())
class TestConformance:
    def test_satisfies_protocol(self, name, summaries):
        summary = summaries[name]
        assert isinstance(summary, GraphSummary)
        assert summary.capabilities() == sketch_info(name).capabilities

    def test_memory_budget_respected(self, name, summaries):
        # The factory picks the largest shape that fits; allow slack for
        # integer rounding and per-structure buffers, but a budget may never
        # be wildly exceeded and may not collapse to nothing.
        memory = summaries[name].memory_bytes()
        assert 0 < memory <= 2 * BUDGET_BYTES

    def test_edge_queries_one_sided(self, name, summaries, truth):
        summary = summaries[name]
        if not summary.capabilities().edge_queries:
            with pytest.raises(UnsupportedQueryError):
                summary.edge_query("hub", "n1")
            return
        for key, weight in truth["weights"].items():
            estimate = summary.edge_query(*key)
            assert estimate is not None, f"{name} missed true edge {key}"
            assert estimate >= weight - 1e-9
        # An edge over never-seen nodes is None or a float — never a sentinel.
        absent = summary.edge_query("ghost-node", "other-ghost")
        assert absent is None or isinstance(absent, float)

    def test_successor_queries(self, name, summaries, truth):
        summary = summaries[name]
        if not summary.capabilities().successor_queries:
            with pytest.raises(UnsupportedQueryError):
                summary.successor_query("hub")
            return
        for node in truth["nodes"]:
            reported = summary.successor_query(node)
            expected = truth["successors"].get(node, set())
            if name == "undirected-gss":
                # The undirected view reports the full neighbourhood.
                expected = expected | truth["precursors"].get(node, set())
            missing = expected - reported
            assert not missing, f"{name} missed successors {missing} of {node!r}"

    def test_precursor_queries(self, name, summaries, truth):
        summary = summaries[name]
        if not summary.capabilities().precursor_queries:
            with pytest.raises(UnsupportedQueryError):
                summary.precursor_query("hub")
            return
        for node in truth["nodes"]:
            reported = summary.precursor_query(node)
            expected = truth["precursors"].get(node, set())
            if name == "undirected-gss":
                expected = expected | truth["successors"].get(node, set())
            missing = expected - reported
            assert not missing, f"{name} missed precursors {missing} of {node!r}"

    def test_node_out_weight(self, name, summaries, truth):
        summary = summaries[name]
        if not summary.capabilities().node_out_weights:
            with pytest.raises(UnsupportedQueryError):
                summary.node_out_weight("hub")
            return
        for node in ("hub", "n0", "n3"):
            estimate = summary.node_out_weight(node)
            assert estimate >= truth["out_weights"].get(node, 0.0) - 1e-9

    def test_node_in_weight_available(self, name, summaries):
        summary = summaries[name]
        if not summary.capabilities().node_in_weights:
            with pytest.raises(UnsupportedQueryError):
                summary.node_in_weight("n1")
            return
        assert summary.node_in_weight("n1") >= 0.0

    def test_update_many_matches_scalar(self, name, truth):
        summary_batched = built_and_fed(name, seed=13)
        summary_scalar = build(spec_for(name, seed=13))
        for edge in make_stream():
            summary_scalar.update(edge.source, edge.destination, edge.weight)
        capabilities = summary_batched.capabilities()
        if capabilities.edge_queries:
            for key in truth["weights"]:
                assert summary_batched.edge_query(*key) == summary_scalar.edge_query(*key)
        if capabilities.triangle_estimates:
            assert summary_batched.triangle_estimate() == pytest.approx(
                summary_scalar.triangle_estimate()
            )

    def test_serialization_capability_matches_behavior(self, name, summaries, truth):
        summary = summaries[name]
        if not summary.capabilities().serializable:
            with pytest.raises(UnsupportedQueryError):
                summary.to_dict()
            return
        document = summary.to_dict()
        assert document.get("sketch") == name or "config" in document
        restored = from_dict(document)
        assert restored.capabilities() == summary.capabilities()
        sample = list(truth["weights"])[:50] + [("ghost-node", "other-ghost")]
        for key in sample:
            assert restored.edge_query(*key) == summary.edge_query(*key)

    def test_deletions_capability(self, name):
        summary = build(spec_for(name, seed=23))
        if not summary.capabilities().deletions:
            return
        summary.update("del-a", "del-b", 5.0)
        before = summary.edge_query("del-a", "del-b")
        assert before is not None and before >= 5.0
        # A partial deletion must keep the edge visible with the surviving
        # weight still over-estimated, not collapse it to "absent".
        summary.update("del-a", "del-b", -3.0)
        partial = summary.edge_query("del-a", "del-b")
        assert partial is not None, f"{name} lost a live edge after a deletion"
        assert 2.0 - 1e-9 <= partial <= before
        # Deleting the rest may report the stored zero or absence, never a
        # weight above the partial estimate.
        summary.update("del-a", "del-b", -2.0)
        emptied = summary.edge_query("del-a", "del-b")
        assert emptied is None or emptied <= partial
