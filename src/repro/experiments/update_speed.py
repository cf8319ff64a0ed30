"""Table I — update speed of GSS, GSS without sampling, TCM and adjacency lists.

The paper reports million insertions per second (Mips) of a C++
implementation.  In pure Python the absolute throughput is orders of
magnitude lower (the calibration note for this reproduction flags exactly
that), so the table here reports edges/second *and* the speed of every
structure relative to TCM, which is the comparison the paper actually draws
("the speed of GSS is similar to TCM ... both much higher than the adjacency
list").
"""

from __future__ import annotations

from repro.exact.adjacency_list import AdjacencyListGraph
from repro.experiments.config import ExperimentConfig, load_streams
from repro.experiments.report import ExperimentResult
from repro.metrics.throughput import (
    measure_batch_update_throughput,
    measure_update_throughput,
)


def _close_if_closeable(store: object) -> None:
    close = getattr(store, "close", None)
    if callable(close):
        close()


def run_update_speed_experiment(config: ExperimentConfig = None) -> ExperimentResult:
    """Reproduce Table I: relative update throughput of the structures.

    Beyond the paper's four rows, a ``GSS(update_many)`` row measures the
    batched ingestion API so the scalar-vs-batch speedup is part of the
    regenerated table (``extras["batch_size"]`` controls the chunk size).
    """
    config = config or ExperimentConfig()
    repeats = config.extras.get("speed_repeats", 1)
    batch_size = config.extras.get("batch_size", 1024)
    fingerprint_bits = max(config.fingerprint_bits)
    result = ExperimentResult(
        experiment="tab1",
        description=f"update speed (edges/s and relative to TCM; backend={config.backend})",
        columns=["dataset", "structure", "edges_per_second", "mips", "relative_to_tcm"],
    )
    for name, stream in load_streams(config):
        statistics = stream.statistics()
        width = config.recommended_width(statistics)
        edges = list(stream)

        def make_gss(sampling: bool = True):
            return config.build_gss(width, fingerprint_bits, sampling=sampling)

        def make_tcm():
            return config.build_tcm(reference, config.tcm_edge_memory_ratio)

        reference = make_gss()
        measurements = {
            "GSS": measure_update_throughput(make_gss, edges, label="GSS", repeats=repeats),
            "GSS(update_many)": measure_batch_update_throughput(
                make_gss,
                edges,
                label="GSS(update_many)",
                repeats=repeats,
                batch_size=batch_size,
            ),
            "GSS(no sampling)": measure_update_throughput(
                lambda: make_gss(sampling=False), edges, label="GSS(no sampling)", repeats=repeats
            ),
            "TCM": measure_update_throughput(
                make_tcm,
                edges,
                label="TCM",
                repeats=repeats,
            ),
            "TCM(update_many)": measure_batch_update_throughput(
                make_tcm,
                edges,
                label="TCM(update_many)",
                repeats=repeats,
                batch_size=batch_size,
            ),
            "Adjacency Lists": measure_update_throughput(
                AdjacencyListGraph, edges, label="Adjacency Lists", repeats=repeats
            ),
        }
        if config.workers:
            # Multi-process cluster row at the reference GSS's memory: same
            # total sketch capacity, sharded over worker processes.  The
            # timed region includes the flush barrier (see
            # measure_batch_update_throughput) and each repeat tears its
            # worker processes down untimed.
            def make_cluster():
                return config.build_sketch(
                    "sharded-gss",
                    reference.config.matrix_memory_bytes(),
                    workers=config.workers,
                    fingerprint_bits=fingerprint_bits,
                    rooms=config.rooms,
                    sequence_length=config.sequence_length,
                    candidate_buckets=config.candidate_buckets,
                    batch_size=batch_size,
                )

            cluster_label = f"sharded-gss(workers={config.workers})"
            measurements[cluster_label] = measure_batch_update_throughput(
                make_cluster,
                edges,
                label=cluster_label,
                repeats=repeats,
                batch_size=batch_size,
                teardown=_close_if_closeable,
            )
        for extra_name in config.extra_sketches:
            # --sketch rows: any registered structure, granted the same
            # memory as the reference GSS (the comparison invariant).
            def make_extra(name=extra_name):
                return config.build_sketch(
                    name, reference.config.matrix_memory_bytes()
                )

            label = f"{extra_name}(equal memory)"
            measurements[label] = measure_update_throughput(
                make_extra,
                edges,
                label=label,
                repeats=repeats,
                # Sketches owning external resources (the sharded-gss
                # cluster's worker processes) are released per repeat instead
                # of lingering until garbage collection.
                teardown=_close_if_closeable,
            )
        tcm_rate = measurements["TCM"].items_per_second
        for label, measurement in measurements.items():
            result.add(
                dataset=name,
                structure=label,
                edges_per_second=measurement.items_per_second,
                mips=measurement.mips,
                relative_to_tcm=measurement.items_per_second / tcm_rate if tcm_rate else 0.0,
            )
    return result
