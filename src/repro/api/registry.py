"""Sketch registry and factory: name → parameter translation → instance.

Every summary structure in the package is registered here under a short name
(``"gss"``, ``"tcm"``, ``"cm"``, ...).  A :class:`SketchSpec` names the
sketch, its structure-specific parameters, the matrix/counter backend and —
crucially — a *memory budget*: the paper's Section VII compares structures at
equal (or explicitly handicapped) memory, and the byte→shape arithmetic for
every structure lives in this module's builders instead of being re-derived
in each experiment runner.

Sizing rules, in precedence order:

1. an explicit size parameter in ``params`` (``matrix_width``, ``width``,
   ``total_width``, ``reservoir_size`` — whatever the structure calls it);
2. ``memory_bytes`` — the builder inverts the structure's C-layout accounting
   to find the largest shape that fits the budget;
3. ``expected_edges`` — translated to the memory of a default GSS sized for
   that many distinct edges (``m ~ sqrt(|E| / rooms)``), so
   ``build("tcm", expected_edges=E)`` and ``build("gss", expected_edges=E)``
   land on the same budget: the equal-memory comparison invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.api.adapters import TriestSummary
from repro.api.protocol import Capabilities, GraphSummary
from repro.cluster.sharded import DEFAULT_ROUTING_SEED, ShardedSummary
from repro.baselines.cm_sketch import CountMinSketch
from repro.baselines.cu_sketch import CountMinCUSketch
from repro.baselines.gmatrix import GMatrix
from repro.baselines.gsketch import GSketch
from repro.baselines.tcm import TCM
from repro.baselines.triest import TriestBase, TriestImproved
from repro.core.basic import GSSBasic
from repro.core.config import GSSConfig
from repro.core.ensemble import GSSEnsemble
from repro.core.gss import GSS
from repro.core.undirected import UndirectedGSS
from repro.core.windowed import WindowedGSS

__all__ = [
    "SketchSpec",
    "SketchInfo",
    "SpecSizingError",
    "build",
    "from_dict",
    "list_sketches",
    "register_sketch",
    "sketch_info",
]


class SpecSizingError(ValueError):
    """A spec names no size: no budget, no expected edges, no size parameter.

    Distinct from other ``ValueError``s (unknown parameters, missing required
    parameters) so that callers offering deferred sizing — the
    :class:`~repro.api.session.StreamSession` auto-sizing path — can defer
    exactly this case while still failing fast on genuinely invalid specs.
    """


@dataclass(frozen=True)
class SketchSpec:
    """A declarative request for a summary structure.

    Parameters
    ----------
    sketch:
        Registered sketch name (see :func:`list_sketches`).
    memory_bytes:
        Memory budget under the paper's C layout; the factory picks the
        largest shape that fits.
    expected_edges:
        Alternative sizing: the budget of a default GSS sized for this many
        distinct edges (the equal-memory comparison invariant).
    backend:
        Matrix/counter backend (``python`` / ``numpy`` / ``native`` /
        ``auto``) for the structures that have one; ignored by the
        reservoir estimators.
    seed:
        Base hash seed.
    params:
        Structure-specific parameters (e.g. ``fingerprint_bits`` for GSS,
        ``depth`` for TCM, ``window_span`` for the windowed wrapper).
        Unknown names raise ``ValueError`` listing the accepted ones.
    """

    sketch: str
    memory_bytes: Optional[int] = None
    expected_edges: Optional[int] = None
    backend: str = "python"
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)

    def with_params(self, **params: Any) -> "SketchSpec":
        """A copy of this spec with extra/overridden structure parameters."""
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=merged)


@dataclass(frozen=True)
class SketchInfo:
    """Registry entry: how to build one sketch and what it can do."""

    name: str
    description: str
    capabilities: Capabilities
    builder: Callable[[SketchSpec], GraphSummary]
    #: Accepted ``params`` keys, shown in error messages and CLI listings.
    param_names: Tuple[str, ...] = ()
    #: ``from_dict``-style restorer for this sketch's snapshot documents.
    restorer: Optional[Callable[..., GraphSummary]] = None
    #: ``params`` keys that MUST be supplied — the sketch cannot be built
    #: from a bare memory budget (e.g. ``windowed-gss`` needs a window span).
    #: Callers offering budget-only construction (the CLI's ``--sketch``)
    #: exclude these sketches.
    required_params: Tuple[str, ...] = ()


_REGISTRY: Dict[str, SketchInfo] = {}


def register_sketch(info: SketchInfo, replace_existing: bool = False) -> None:
    """Add a sketch to the registry (e.g. a user-defined summary structure)."""
    if info.name in _REGISTRY and not replace_existing:
        raise ValueError(f"sketch {info.name!r} is already registered")
    _REGISTRY[info.name] = info


def list_sketches() -> List[str]:
    """Registered sketch names, in registration (paper) order."""
    return list(_REGISTRY)


def sketch_info(name: str) -> SketchInfo:
    """Registry entry for ``name``; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown sketch {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def build(spec, /, **overrides) -> GraphSummary:
    """Build a summary structure from a :class:`SketchSpec` (or a name).

    ``build("tcm", memory_bytes=65536, params={"depth": 4})`` is shorthand
    for ``build(SketchSpec("tcm", memory_bytes=65536, params={"depth": 4}))``.
    """
    if isinstance(spec, str):
        spec = SketchSpec(spec, **overrides)
    elif overrides:
        spec = replace(spec, **overrides)
    info = sketch_info(spec.sketch)
    _check_params(spec, info.param_names)
    return info.builder(spec)


def from_dict(document: Dict, backend: Optional[str] = None) -> GraphSummary:
    """Restore any serializable sketch from its snapshot document.

    Dispatches on the document's ``"sketch"`` tag; documents written before
    the tag existed (GSS snapshots) restore as GSS.  ``backend`` optionally
    re-targets the restored structure onto a different backend.
    """
    tag = document.get("sketch")
    if tag is None and "config" in document:
        tag = "gss"  # pre-tag GSS snapshot
    if tag is None:
        raise ValueError("document has no 'sketch' tag and is not a GSS snapshot")
    info = sketch_info(tag)
    if info.restorer is None:
        raise ValueError(f"sketch {tag!r} does not support serialization")
    return info.restorer(document, backend=backend)


# -- sizing helpers ----------------------------------------------------------


def _check_params(spec: SketchSpec, allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(spec.params) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for sketch "
            f"{spec.sketch!r}; accepted: {', '.join(allowed) or '(none)'}"
        )


def reference_budget_bytes(spec: SketchSpec) -> int:
    """The spec's memory budget in bytes.

    ``memory_bytes`` wins; otherwise ``expected_edges`` is converted through
    the budget of a *default* GSS sized for that many edges, which is what
    makes ``expected_edges`` an equal-memory request across sketches.
    """
    if spec.memory_bytes is not None:
        if spec.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        return int(spec.memory_bytes)
    if spec.expected_edges is not None:
        if spec.expected_edges <= 0:
            raise ValueError("expected_edges must be positive")
        return GSSConfig.for_edge_count(spec.expected_edges).matrix_memory_bytes()
    raise SpecSizingError(
        f"SketchSpec({spec.sketch!r}) needs memory_bytes, expected_edges or an "
        "explicit size parameter in params"
    )


def _gss_width_for_budget(budget_bytes: int, fingerprint_bits: int, rooms: int) -> int:
    """Largest matrix width whose C-layout memory fits the budget."""
    room_bits = 2 * fingerprint_bits + 8 + 32
    slots = budget_bytes * 8 / (rooms * room_bits)
    return max(4, int(math.sqrt(slots)))


def _gss_config(spec: SketchSpec, extra_exclude: Tuple[str, ...] = ()) -> GSSConfig:
    """Translate a spec into a :class:`GSSConfig` (shared by the GSS family)."""
    params = {key: value for key, value in spec.params.items() if key not in extra_exclude}
    fingerprint_bits = params.get("fingerprint_bits", 16)
    rooms = params.get("rooms", 2)
    width = params.pop("matrix_width", None)
    if width is None:
        if spec.memory_bytes is not None:
            width = _gss_width_for_budget(
                reference_budget_bytes(spec), fingerprint_bits, rooms
            )
        elif spec.expected_edges is not None:
            # The paper's sizing guidance directly: about one room per
            # distinct edge (GSSConfig.for_edge_count).
            width = max(4, int((spec.expected_edges / rooms) ** 0.5) + 1)
        else:
            raise SpecSizingError(
                f"SketchSpec({spec.sketch!r}) needs memory_bytes, expected_edges "
                "or params['matrix_width']"
            )
    return GSSConfig(matrix_width=width, seed=spec.seed, backend=spec.backend, **params)


_GSS_PARAMS = (
    "matrix_width",
    "fingerprint_bits",
    "rooms",
    "sequence_length",
    "candidate_buckets",
    "square_hashing",
    "sampling",
    "keep_node_index",
)


# -- builders ----------------------------------------------------------------


def _build_gss(spec: SketchSpec) -> GSS:
    return GSS(_gss_config(spec))


def _build_gss_basic(spec: SketchSpec) -> GSSBasic:
    if spec.backend in ("numpy", "native"):
        # GSSBasic has no vectorized or compiled storage; failing an explicit
        # numpy/native request beats silently building a pure-python sketch
        # into a comparison row labeled with that backend.  "auto" resolves
        # to the only backend the structure has (pure Python) — auto means
        # "best available".
        raise ValueError("gss-basic supports only the python backend")
    fingerprint_bits = spec.params.get("fingerprint_bits", 16)
    width = spec.params.get("matrix_width")
    if width is None:
        room_bits = 2 * fingerprint_bits + 32
        width = max(4, int(math.sqrt(reference_budget_bytes(spec) * 8 / room_bits)))
    return GSSBasic(
        matrix_width=width,
        fingerprint_bits=fingerprint_bits,
        keep_node_index=spec.params.get("keep_node_index", True),
        seed=spec.seed,
    )


def _build_undirected(spec: SketchSpec) -> UndirectedGSS:
    return UndirectedGSS(_gss_config(spec))


def _build_ensemble(spec: SketchSpec) -> GSSEnsemble:
    sketches = spec.params.get("sketches", 2)
    member_spec = spec.with_params()
    if spec.memory_bytes is None and spec.expected_edges is None:
        member_budget_spec = member_spec
    else:
        # Split the budget across the members so the ensemble as a whole
        # honours the requested bytes.
        member_budget_spec = replace(
            member_spec,
            memory_bytes=max(1, reference_budget_bytes(spec) // sketches),
            expected_edges=None,
        )
    config = _gss_config(member_budget_spec, extra_exclude=("sketches",))
    return GSSEnsemble(config, sketches=sketches)


def _build_windowed(spec: SketchSpec) -> WindowedGSS:
    if "window_span" not in spec.params:
        raise ValueError("windowed-gss requires params['window_span']")
    window_span = spec.params["window_span"]
    slices = spec.params.get("slices", 4)
    if spec.memory_bytes is None and spec.expected_edges is None:
        slice_spec = spec
    else:
        # Each live slice holds a fraction of the window, so the budget is
        # split across the slices that can be alive at once.
        slice_spec = replace(
            spec,
            memory_bytes=max(1, reference_budget_bytes(spec) // max(1, slices)),
            expected_edges=None,
        )
    config = _gss_config(slice_spec, extra_exclude=("window_span", "slices"))
    return WindowedGSS(config, window_span=window_span, slices=slices)


def _sharded_deployment(
    spec: SketchSpec, count_param: str, default_count: int, in_process: bool
) -> ShardedSummary:
    """Build a :class:`ShardedSummary` of ``spec.params[count_param]`` GSS
    shards (see :mod:`repro.cluster`).

    The memory budget (or expected edge count) is split evenly across the
    shards — the ``m ~ sqrt(|E| / shards)`` guidance for distributed
    deployments — so a sharded deployment and a monolithic sketch built at
    the same budget are an equal-memory comparison.  Every parameter except
    the deployment's own passes through to the per-shard GSS.
    """
    deployment_params = (count_param, "routing_seed", "batch_size")
    shards = spec.params.get(count_param, default_count)
    if shards < 1:
        raise ValueError(f"{count_param} must be at least 1")
    inner_params = {
        key: value for key, value in spec.params.items() if key not in deployment_params
    }
    inner = SketchSpec(
        "gss", backend=spec.backend, seed=spec.seed, params=inner_params
    )
    if "matrix_width" in inner_params:
        pass  # explicitly sized shards
    elif spec.memory_bytes is not None:
        inner = replace(
            inner, memory_bytes=max(1, reference_budget_bytes(spec) // shards)
        )
    elif spec.expected_edges is not None:
        if spec.expected_edges <= 0:
            raise ValueError("expected_edges must be positive")
        inner = replace(
            inner, expected_edges=max(1, spec.expected_edges // shards)
        )
    else:
        raise SpecSizingError(
            f"SketchSpec({spec.sketch!r}) needs memory_bytes, expected_edges or "
            "params['matrix_width']"
        )
    return ShardedSummary(
        inner,
        workers=shards,
        routing_seed=spec.params.get("routing_seed", DEFAULT_ROUTING_SEED),
        batch_size=spec.params.get("batch_size", 1024),
        in_process=in_process,
    )


def _build_partitioned(spec: SketchSpec) -> ShardedSummary:
    return _sharded_deployment(spec, "partitions", 4, in_process=True)


def _build_sharded(spec: SketchSpec) -> ShardedSummary:
    return _sharded_deployment(spec, "workers", 2, in_process=False)


def _build_tcm(spec: SketchSpec) -> TCM:
    depth = spec.params.get("depth", 4)
    width = spec.params.get("width")
    if width is None:
        per_sketch_counters = max(1.0, reference_budget_bytes(spec) / (4 * depth))
        width = max(2, int(math.sqrt(per_sketch_counters)))
    return TCM(width=width, depth=depth, seed=spec.seed, backend=spec.backend)


def _build_gmatrix(spec: SketchSpec) -> GMatrix:
    width = spec.params.get("width")
    if width is None:
        width = max(2, int(math.sqrt(reference_budget_bytes(spec) / 4)))
    return GMatrix(
        width=width,
        universe_size=spec.params.get("universe_size", 1 << 20),
        seed=spec.seed,
        backend=spec.backend,
    )


def _build_cm(cls, spec: SketchSpec):
    depth = spec.params.get("depth", 4)
    width = spec.params.get("width")
    if width is None:
        width = max(1, reference_budget_bytes(spec) // (4 * depth))
    return cls(width=width, depth=depth, seed=spec.seed, backend=spec.backend)


def _build_gsketch(spec: SketchSpec) -> GSketch:
    depth = spec.params.get("depth", 4)
    partitions = spec.params.get("partitions", 8)
    total_width = spec.params.get("total_width")
    if total_width is None:
        total_width = max(partitions, reference_budget_bytes(spec) // (4 * depth))
    return GSketch(
        total_width=total_width,
        partitions=partitions,
        depth=depth,
        seed=spec.seed,
        backend=spec.backend,
    )


def _build_triest(cls, spec: SketchSpec) -> TriestSummary:
    reservoir_size = spec.params.get("reservoir_size")
    if reservoir_size is None:
        # One reservoir slot costs 16 bytes (two 8-byte node ids).
        reservoir_size = max(6, reference_budget_bytes(spec) // 16)
    return TriestSummary(cls(reservoir_size=reservoir_size, seed=spec.seed))


def _register_defaults() -> None:
    entries = [
        SketchInfo(
            name="gss",
            description="Graph Stream Sketch (square hashing, sampling, rooms)",
            capabilities=GSS.capabilities(),
            builder=_build_gss,
            param_names=_GSS_PARAMS,
            restorer=GSS.from_dict,
        ),
        SketchInfo(
            name="gss-basic",
            description="basic GSS of Section IV (one bucket per edge; python backend only)",
            capabilities=GSSBasic.capabilities(),
            builder=_build_gss_basic,
            param_names=("matrix_width", "fingerprint_bits", "keep_node_index"),
        ),
        SketchInfo(
            name="undirected-gss",
            description="GSS storing undirected edges under a canonical orientation",
            capabilities=UndirectedGSS.capabilities(),
            builder=_build_undirected,
            param_names=_GSS_PARAMS,
        ),
        SketchInfo(
            name="gss-ensemble",
            description="independent GSS sketches answering with min/intersection",
            capabilities=GSSEnsemble.capabilities(),
            builder=_build_ensemble,
            param_names=_GSS_PARAMS + ("sketches",),
        ),
        SketchInfo(
            name="windowed-gss",
            description="sliding-window GSS built from per-slice sketches",
            capabilities=WindowedGSS.capabilities(),
            builder=_build_windowed,
            param_names=_GSS_PARAMS + ("window_span", "slices"),
            required_params=("window_span",),
        ),
        SketchInfo(
            name="partitioned-gss",
            description="source-partitioned GSS shards held in-process",
            # ShardedSummary.capabilities() of in-process gss shards: the
            # shards merge (merge_sketches), but there is no snapshot format.
            capabilities=Capabilities(mergeable=True),
            builder=_build_partitioned,
            param_names=_GSS_PARAMS + ("partitions", "routing_seed"),
        ),
        SketchInfo(
            name="sharded-gss",
            description="multi-process source-sharded GSS cluster (repro.cluster)",
            # The inner GSS's capabilities minus single-sketch-only features
            # (hash-level paths, in-place merging); must equal what
            # ShardedSummary.capabilities() reports for a gss inner spec.
            capabilities=Capabilities(serializable=True),
            builder=_build_sharded,
            param_names=_GSS_PARAMS + ("workers", "routing_seed", "batch_size"),
            restorer=ShardedSummary.from_dict,
        ),
        SketchInfo(
            name="tcm",
            description="TCM baseline: hashed adjacency matrices of counters",
            capabilities=TCM.capabilities(),
            builder=_build_tcm,
            param_names=("width", "depth"),
            restorer=TCM.from_dict,
        ),
        SketchInfo(
            name="gmatrix",
            description="gMatrix baseline: TCM with reversible hash functions",
            capabilities=GMatrix.capabilities(),
            builder=_build_gmatrix,
            param_names=("width", "universe_size"),
            restorer=GMatrix.from_dict,
        ),
        SketchInfo(
            name="cm",
            description="Count-Min sketch over edge keys (edge weights only)",
            capabilities=CountMinSketch.capabilities(),
            builder=lambda spec: _build_cm(CountMinSketch, spec),
            param_names=("width", "depth"),
            restorer=CountMinSketch.from_dict,
        ),
        SketchInfo(
            name="cu",
            description="Count-Min sketch with conservative update",
            capabilities=CountMinCUSketch.capabilities(),
            builder=lambda spec: _build_cm(CountMinCUSketch, spec),
            param_names=("width", "depth"),
            restorer=CountMinCUSketch.from_dict,
        ),
        SketchInfo(
            name="gsketch",
            description="gSketch baseline: CM sketches partitioned by source node",
            capabilities=GSketch.capabilities(),
            builder=_build_gsketch,
            param_names=("total_width", "partitions", "depth"),
        ),
        SketchInfo(
            name="triest-base",
            description="TRIEST-BASE reservoir triangle counting (adapter)",
            capabilities=TriestSummary.capabilities(),
            builder=lambda spec: _build_triest(TriestBase, spec),
            param_names=("reservoir_size",),
        ),
        SketchInfo(
            name="triest-impr",
            description="TRIEST-IMPR reservoir triangle counting (adapter)",
            capabilities=TriestSummary.capabilities(),
            builder=lambda spec: _build_triest(TriestImproved, spec),
            param_names=("reservoir_size",),
        ),
    ]
    for entry in entries:
        register_sketch(entry)


_register_defaults()
