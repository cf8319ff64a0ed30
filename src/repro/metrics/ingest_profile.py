"""Per-stage ingest profiling (``record_bench.py --profile``).

Batched ingestion has four qualitatively different cost centers:

* ``hashing`` — resolving original node IDs to packed sketch-edge keys
  (memo probes, vectorized FNV/splitmix over new nodes);
* ``placement`` — aggregation, edge classification and the bucket-probe /
  contention-resolution walk (one kernel call on the native backend);
* ``buffer_spill`` — marshalling edges that overflowed to the left-over
  buffer;
* ``memo`` — upkeep of the persistent node/pair caches.

The profiler mirrors :class:`repro.hashing.hash_functions.HashCounter`: a
context manager installs an active profile, the backends add timed spans to
it, and the common case (no profiling) costs one ``is None`` check per
batch.  Stages are disjoint — container spans subtract the nested stages
recorded while they ran — so the stage times sum to (at most) the measured
ingest time.  The pure-Python backend separates only ``hashing`` and
``placement`` (its buffer spill and per-item work are interleaved in one
loop); the native backend reports all four stages.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.trace import active as _obs_active

#: Per-stage ingest timings mirrored into the obs registry (when enabled):
#: one histogram series per stage label, so ``record_bench.py --profile``
#: can report ``obs_stage_seconds`` next to the legacy stage dict and a
#: live server's stage mix shows up on ``GET /metrics``.
STAGE_FAMILY = "repro_ingest_stage_seconds"
_STAGE_HELP = "Batched-ingest stage durations (label: stage name)."


class IngestProfile:
    """Accumulated per-stage wall-clock seconds plus a batch counter."""

    __slots__ = ("stages", "batches")

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}
        self.batches = 0

    def add(self, stage: str, seconds: float) -> None:
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds
        registry = _obs_active()
        if registry is not None:
            registry.histogram(STAGE_FAMILY, _STAGE_HELP, stage=stage).observe(
                seconds
            )

    def stage_seconds(self, stage: str) -> float:
        return self.stages.get(stage, 0.0)

    def count_batch(self) -> None:
        self.batches += 1

    def as_dict(self) -> Dict:
        """JSON-ready snapshot: totals, per-batch means and stage shares."""
        total = sum(self.stages.values())
        return {
            "batches": self.batches,
            "total_seconds": total,
            "stage_seconds": dict(sorted(self.stages.items())),
            "stage_seconds_per_batch": {
                stage: seconds / self.batches if self.batches else 0.0
                for stage, seconds in sorted(self.stages.items())
            },
            "stage_share": {
                stage: seconds / total if total else 0.0
                for stage, seconds in sorted(self.stages.items())
            },
        }


#: The active profile, or ``None`` (the common case: zero-cost fast path).
_active_profile: Optional[IngestProfile] = None


def active_profile() -> Optional[IngestProfile]:
    """The installed profile, consulted by the backends on every batch."""
    return _active_profile


@contextmanager
def profile_ingest() -> Iterator[IngestProfile]:
    """Instrument every batched-ingest stage inside the block.

    Nesting restores the previous profile on exit, like
    :func:`repro.hashing.hash_functions.count_key_hashes`.
    """
    global _active_profile
    profile = IngestProfile()
    previous = _active_profile
    _active_profile = profile
    try:
        yield profile
    finally:
        _active_profile = previous
