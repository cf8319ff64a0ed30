"""Shared configuration of the experiment runners.

The defaults are sized so that the whole benchmark suite finishes in minutes
in pure Python while keeping the structure of the paper's Section VII: the
same datasets (as synthetic analogs), the same width sweeps (expressed as
multiples of the recommended width ``sqrt(|E| / rooms)``), the same two
fingerprint sizes and the same memory handicap granted to TCM.

Every sketch the runners measure is constructed through the
:mod:`repro.api` factory (:meth:`ExperimentConfig.build_gss`,
:meth:`ExperimentConfig.build_tcm`, :meth:`ExperimentConfig.build_sketch`),
so the byte→shape arithmetic of the equal-memory comparisons lives in the
registry instead of being re-derived per runner, and streams are fed through
:class:`repro.api.StreamSession` (:meth:`ExperimentConfig.feed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.api import SketchSpec, StreamSession, build, sketch_info
from repro.streaming.stream import GraphStream, StreamStatistics


#: Datasets in the paper's order; the two "small" ones come first, matching
#: the paper's choice of r = k = 8 for them and r = k = 16 for the rest.
PAPER_DATASETS: Tuple[str, ...] = (
    "email-EuAll",
    "cit-HepPh",
    "web-NotreDame",
    "lkml-reply",
    "caida-networkflow",
)


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment runner.

    ``datasets`` selects which analogs to run on, ``dataset_scale`` shrinks or
    grows them, ``width_factors`` is the sweep over matrix widths relative to
    the recommended width, and ``query_sample`` caps the number of node/edge
    queries issued per configuration (``None`` = the full query set, exactly
    as in the paper).  ``extra_sketches`` adds comparison rows for other
    registered sketches at the reference GSS's memory (CLI ``--sketch``).
    """

    datasets: Sequence[str] = PAPER_DATASETS[:3]
    dataset_scale: float = 0.25
    width_factors: Sequence[float] = (0.8, 1.0, 1.2)
    fingerprint_bits: Sequence[int] = (12, 16)
    sequence_length: int = 8
    candidate_buckets: int = 8
    rooms: int = 2
    tcm_depth: int = 4
    tcm_edge_memory_ratio: float = 8.0
    tcm_topology_memory_ratio: float = 64.0
    query_sample: int = 400
    reachability_pairs: int = 50
    seed: int = 20190419
    backend: str = "python"
    extra_sketches: Sequence[str] = ()
    #: Worker-process count for the ``sharded-gss`` cluster rows (CLI
    #: ``--workers``); 0 disables them.
    workers: int = 0
    extras: dict = field(default_factory=dict)

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """Small configuration for tests: tiny datasets, single width."""
        return cls(
            datasets=("email-EuAll",),
            dataset_scale=0.05,
            width_factors=(1.0,),
            fingerprint_bits=(12,),
            sequence_length=4,
            candidate_buckets=4,
            query_sample=60,
            reachability_pairs=10,
        )

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """Closer to the paper: all five datasets at full analog size."""
        return cls(
            datasets=PAPER_DATASETS,
            dataset_scale=1.0,
            width_factors=(0.7, 0.85, 1.0, 1.15, 1.3),
            query_sample=None,
            reachability_pairs=100,
            sequence_length=16,
            candidate_buckets=16,
            tcm_topology_memory_ratio=256.0,
        )

    # -- builders shared by the runners ------------------------------------

    def recommended_width(self, statistics: StreamStatistics) -> int:
        """Width such that the matrix holds about one room per distinct edge."""
        edges = max(1, statistics.distinct_edges)
        return max(4, int((edges / self.rooms) ** 0.5) + 1)

    def widths_for(self, statistics: StreamStatistics) -> List[int]:
        """The absolute width sweep for a dataset."""
        base = self.recommended_width(statistics)
        widths = sorted({max(4, int(base * factor)) for factor in self.width_factors})
        return widths

    def gss_spec(
        self,
        width: int,
        fingerprint_bits: int,
        rooms: int = None,
        square_hashing: bool = True,
        sampling: bool = True,
    ) -> SketchSpec:
        """The :class:`SketchSpec` of a GSS with this experiment's parameters."""
        return SketchSpec(
            "gss",
            backend=self.backend,
            seed=self.seed,
            params={
                "matrix_width": width,
                "fingerprint_bits": fingerprint_bits,
                "rooms": self.rooms if rooms is None else rooms,
                "sequence_length": self.sequence_length,
                "candidate_buckets": self.candidate_buckets,
                "square_hashing": square_hashing,
                "sampling": sampling,
            },
        )

    def build_gss(
        self,
        width: int,
        fingerprint_bits: int,
        rooms: int = None,
        square_hashing: bool = True,
        sampling: bool = True,
    ):
        """Build a GSS with this experiment's square-hashing parameters.

        The matrix backend follows ``self.backend`` (CLI ``--backend``), so
        every experiment runner compares structures on the same backend.
        """
        return build(
            self.gss_spec(
                width,
                fingerprint_bits,
                rooms=rooms,
                square_hashing=square_hashing,
                sampling=sampling,
            )
        )

    def build_tcm(self, reference, memory_ratio: float):
        """Build a TCM granted ``memory_ratio`` times the reference GSS memory.

        The "same memory handicap" rule of Section VII is expressed as a
        factory budget: the registry's TCM builder inverts the counter
        accounting, and the counter backend matches ``self.backend`` so
        Table I comparisons stay apples-to-apples.
        """
        return build(
            SketchSpec(
                "tcm",
                memory_bytes=int(
                    reference.config.matrix_memory_bytes() * memory_ratio
                ),
                backend=self.backend,
                seed=self.seed + 1,
                params={"depth": self.tcm_depth},
            )
        )

    def build_sketch(self, name: str, memory_bytes: int = None, expected_edges: int = None, **params):
        """Build any registered sketch through the factory.

        ``memory_bytes`` grants an explicit budget — the ``--sketch``
        comparison rows use the reference GSS's memory, the paper's
        comparison invariant; ``expected_edges`` sizes for a stream; explicit
        structure parameters go through ``params``.
        """
        return build(
            SketchSpec(
                name,
                memory_bytes=memory_bytes,
                expected_edges=expected_edges,
                backend=self.backend,
                seed=self.seed,
                params=params,
            )
        )

    def extra_sketches_with(self, capability: str) -> List[str]:
        """The ``extra_sketches`` entries supporting a capability flag.

        Raises ``ValueError`` when a requested sketch lacks the capability,
        so a CLI user asking for e.g. successor-precision rows of a CM sketch
        gets a clear error instead of a silent omission.  In lenient mode
        (``extras["sketch_rows_lenient"]``, set by multi-experiment CLI runs
        like ``all``/``extensions``) incompatible sketches are skipped
        instead, so one sketch can ride through every experiment that
        supports it.
        """
        names = []
        for name in self.extra_sketches:
            capabilities = sketch_info(name).capabilities
            if not getattr(capabilities, capability):
                if self.extras.get("sketch_rows_lenient"):
                    continue
                raise ValueError(
                    f"sketch {name!r} does not support {capability}; it cannot "
                    "appear in this experiment"
                )
            names.append(name)
        return names

    def feed(self, store, stream):
        """Feed a stream through the :class:`StreamSession` facade; returns
        ``store`` for chaining (the session handles batching and windowed
        timestamp routing uniformly for every structure)."""
        StreamSession(
            store, batch_size=self.extras.get("batch_size", 1024)
        ).feed(stream)
        return store

    def sample_items(self, items: Sequence, limit: int = None) -> List:
        """Deterministically subsample a query set to ``query_sample`` items."""
        cap = self.query_sample if limit is None else limit
        items = list(items)
        if cap is None or len(items) <= cap:
            return items
        step = len(items) / cap
        return [items[int(position * step)] for position in range(cap)]


def load_streams(config: ExperimentConfig) -> List[Tuple[str, GraphStream]]:
    """Load every dataset analog selected by ``config``."""
    from repro.datasets.registry import load_dataset

    return [
        (name, load_dataset(name, scale=config.dataset_scale))
        for name in config.datasets
    ]
