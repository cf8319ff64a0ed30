"""Tests for the kernel's text encoding (:func:`repro.streaming.batch.text_batch`)
and the fallbacks of its two callers.

Both kernel entry points — a native GSS's ``update_many`` and the sharded
deployment's ``KernelFrontEnd.route`` — cut a batch with ``text_batch``.
Whatever a batch holds, the native GSS must end bit-identical to the python
backend (or refuse the batch as it does), and a deployment routing through
the kernel must end bit-identical to one routing through the Python front
end.  Either way each distinct node is hashed once.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from repro.api import build
from repro.core.config import GSSConfig
from repro.hashing import count_key_hashes
from repro.hashing.vectorized import NUMPY_AVAILABLE
from repro.streaming.batch import check_weights, text_batch, triple_tokens
from repro.streaming.edge import StreamEdge
from shard_oracle import ShardOracle, gss_params


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


requires_native = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)
requires_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs NumPy")

#: Batches each caller must take like its Python counterpart: the kernel
#: text path, or the fallback where the kernel cannot take the batch.
BATCHES = {
    "nul-in-ids": [("x\x00y", "b", 1.0), ("a", "\x00", 2.0), ("a", "b", 0.5)],
    "int-ids": [(1, 2, 1.0), ("a", 3, 1.0), (1, 2, 2.0)],
    "bytes-ids": [(b"a", b"b", 1.0), ("a", "b", 1.0)],
    "tuple-ids": [(("a", 1), "b", 1.0), ("b", ("a", 1), 3.0)],
    "non-ascii-and-empty": [("é", "日", 1.0), ("", "😀", 2.0), ("", "", 0.5), ("é", "", 1)],
    "lone-surrogate": [("\ud800", "b", 1.0), ("a", "\ud800", 1.0)],
    "json-lists": [["a", "b", 1.0], ["b", "c", 2.0], ["a", "b", 3.0]],
    "mixed-lengths": [("a", "b", 1.0), ("c", "d", 2.0, 5.0)],
    "two-tuple": [("a", "b", 1.0), ("c", "d")],
}

#: Batches every summary refuses whole: items that are not triples, and an
#: ID that UTF-8 cannot encode, which no hash function takes.
REFUSED = {"mixed-lengths", "two-tuple", "lone-surrogate"}

#: The nodes a summary holds before each batch, so a batch meets known
#: nodes as well as new ones.
PRIMER = [("a", "b", 1.0), ("b", "c", 1.0), ("é", "a", 2.0)]

#: Every node of the primer and of the NUL batch, and one never seen.
NUL_NODES = ["a", "b", "c", "é", "x\x00y", "\x00", "never"]


def _answers(summary) -> list:
    """Every edge, successor and precursor answer over :data:`NUL_NODES`."""
    return [summary.edge_query(s, d) for s in NUL_NODES for d in NUL_NODES] + [
        (summary.successor_query(node), summary.precursor_query(node)) for node in NUL_NODES
    ]


def _returns(owner, name: str) -> list:
    """Record what ``owner.name`` returns from now on."""
    returned = []
    method = getattr(owner, name)

    def recording(*args):
        returned.append(method(*args))
        return returned[-1]

    setattr(owner, name, recording)
    return returned


def _outcome(summary, batch, document):
    """``summary``'s document after ``batch`` — or, when it refuses the
    batch, the string ``"refused"`` once its document is shown unchanged."""
    before = document()
    try:
        summary.update_many(list(batch))
    except (TypeError, ValueError, IndexError):
        assert document() == before
        return "refused"
    return document()


def _without_backend(document):
    """A GSS document without the one field the backends differ in."""
    document["config"].pop("backend")
    return document


class TestTextBatch:
    @requires_numpy
    def test_cuts_tokens_weights_and_blob(self):
        tokens, weights, blob = text_batch([("a", "bc", 1), ("", "é", 2.5)])
        assert tokens == ["a", "bc", "", "é"]
        assert weights.tolist() == [1.0, 2.5]
        assert blob == "a\x00bc\x00\x00é".encode("utf-8")

    @requires_numpy
    @pytest.mark.parametrize("name", ["int-ids", "bytes-ids", "lone-surrogate"])
    def test_ids_the_kernel_cannot_take_leave_no_blob(self, name):
        tokens, weights, blob = text_batch(BATCHES[name])
        assert blob is None
        assert len(tokens) == 2 * len(weights)

    @requires_numpy
    def test_an_id_holding_a_nul_adds_a_separator(self):
        # The blob is made, and the kernels' separator count refuses it.
        tokens, weights, blob = text_batch(BATCHES["nul-in-ids"])
        assert blob.count(0) == len(tokens) - 1 + sum(token.count("\x00") for token in tokens)

    @pytest.mark.parametrize(
        "items",
        [BATCHES["mixed-lengths"], BATCHES["two-tuple"], [object()], [StreamEdge("a", "b")]],
    )
    def test_items_that_are_not_triples_are_refused(self, items):
        with pytest.raises(ValueError, match="not a .* triple"):
            triple_tokens(items)

    @pytest.mark.parametrize("weight", ["1.5", b"1", Decimal("1.5"), 1j, None])
    def test_weights_that_are_not_real_numbers_are_refused(self, weight):
        with pytest.raises(ValueError, match="not a real number"):
            check_weights([1.0, weight])

    def test_real_numbers_are_taken(self):
        from fractions import Fraction

        check_weights([1.0, 2, True, Fraction(1, 2), float("nan")])


class TestNativeGSSFallbacks:
    @requires_native
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_equals_the_python_backend(self, name):
        outcomes = []
        for backend in ("python", "native"):
            sketch = build("gss", memory_bytes=4096, backend=backend)
            sketch.update_many(PRIMER)
            outcomes.append(
                _outcome(sketch, BATCHES[name], lambda: _without_backend(sketch.to_dict()))
            )
        assert outcomes[0] == outcomes[1]

    @requires_native
    def test_an_id_holding_a_nul_takes_the_fallback(self):
        # The kernel's separator count refuses the blob (-2, nothing
        # changed), and the resolver path answers as the python backend.
        sketches = [build("gss", memory_bytes=4096, backend=name) for name in ("python", "native")]
        for sketch in sketches:
            sketch.update_many(PRIMER)
        declined = _returns(sketches[1], "_ingest_text")
        for sketch in sketches:
            sketch.update_many(BATCHES["nul-in-ids"])
        assert declined == [None]
        assert _answers(sketches[1]) == _answers(sketches[0])

    @requires_native
    @pytest.mark.parametrize("name", sorted(set(BATCHES) - REFUSED))
    def test_hashes_each_distinct_node_once(self, name):
        batch = BATCHES[name]
        sketch = build("gss", memory_bytes=4096, backend="native")
        with count_key_hashes() as counter:
            sketch.update_many(batch)
        assert counter.count == len({node for item in batch for node in item[:2]})
        with count_key_hashes() as counter:
            sketch.update_many(batch)
        assert counter.count == 0


def _deployment(kernel: bool):
    summary = build("partitioned-gss", memory_bytes=16384, params={"partitions": 3})
    if not kernel:
        summary._kernel = None  # every batch takes the Python front end
    return summary


def _documents(summary):
    return [shard.to_dict() for shard in summary.shards]


class TestKernelFrontEndFallbacks:
    @requires_native
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_equals_the_python_front_end(self, name):
        outcomes = []
        for kernel in (True, False):
            with _deployment(kernel) as summary:
                assert (summary._kernel is not None) == kernel
                summary.update_many(PRIMER)
                outcome = _outcome(summary, BATCHES[name], lambda: _documents(summary))
                # The router is left true: the next batch lands alike too.
                summary.update_many([("c", "é", 1.0), ("z", "a", 2.0)])
                outcomes.append((outcome, _documents(summary)))
        assert outcomes[0] == outcomes[1]

    @requires_native
    def test_an_id_holding_a_nul_takes_the_python_front_end(self):
        # A sharded-gss's kernel router refuses the blob (-2, the router
        # untouched); the Python front end routes it, and the workers'
        # native shards answer as python shards behind scalar routing.
        config = GSSConfig(matrix_width=8, fingerprint_bits=4)
        oracle = ShardOracle(config, shards=2)
        params = {**gss_params(config), "workers": 2}
        with build("sharded-gss", seed=config.seed, backend="native", params=params) as summary:
            declined = _returns(summary._kernel, "route")
            for batch in (PRIMER, BATCHES["nul-in-ids"]):
                summary.update_many(batch)
                oracle.update_many(batch)
            summary.flush()
            assert declined[0] is not None and declined[1] is None
            assert _answers(summary) == _answers(oracle)

    @requires_native
    @pytest.mark.parametrize("name", sorted(set(BATCHES) - REFUSED))
    def test_hashes_each_distinct_node_once(self, name):
        batch = BATCHES[name]
        with _deployment(kernel=True) as summary:
            with count_key_hashes() as counter:
                summary.update_many(batch)
            nodes = {node for item in batch for node in item[:2]}
            sources = {item[0] for item in batch}
            # One sketch hash per distinct node, one routing hash per
            # distinct source.
            assert counter.count == len(nodes) + len(sources)
