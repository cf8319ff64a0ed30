"""Span tracing and the process-global telemetry switch.

A module-level ``Optional[MetricsRegistry]`` is the whole on/off
mechanism, so the disabled common case costs one ``is None`` check (the GSS
backends' ingest-stage timers test it once per batch) — and
:func:`span` returns one shared :data:`_NULL_SPAN` singleton when telemetry
is off, so the hot path allocates **nothing** (the disabled-mode overhead
guard in the test suite pins this).

Enabled spans record wall-clock durations into the shared
``repro_span_seconds`` histogram family, labelled by span name plus any
caller labels::

    from repro.obs import trace

    registry = trace.enable()
    with trace.span("ingest.placement", shard=2):
        ...                       # duration lands in repro_span_seconds
                                  #   {span="ingest.placement", shard="2"}

Components with their own registry (the cluster parent, the serve metrics
block) pass ``registry=`` explicitly instead of going through the global.

The span's ``self._started = perf_counter()`` store is the sanctioned
timing-sink pattern the determinism checker whitelists for ``obs/`` files:
the measurement flows only into ``Histogram.observe`` and can never steer
placement.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = [
    "SPAN_FAMILY",
    "Span",
    "active",
    "disable",
    "enable",
    "scoped",
    "span",
]

#: Every span records into this histogram family, labelled ``span=<name>``.
SPAN_FAMILY = "repro_span_seconds"
_SPAN_HELP = "Duration of traced code spans (label: span name)."

#: The active registry, or ``None`` (the common case: zero-cost fast path).
_active: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The installed registry, consulted by instrumented hot paths."""
    return _active


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (or reuse) the process-global registry and return it.

    With no argument, an already-enabled registry is kept (so components
    that each call ``enable()`` share one registry); passing a registry
    replaces the active one — worker processes use this to install a
    *fresh* registry after fork, because the inherited parent counts would
    otherwise be double-counted on merge.
    """
    global _active
    if registry is not None:
        _active = registry
    elif _active is None:
        _active = MetricsRegistry()
    return _active


def disable() -> None:
    """Remove the global registry (spans become no-ops again)."""
    global _active
    _active = None


@contextmanager
def scoped(
    registry: Optional[MetricsRegistry] = None, *, off: bool = False
) -> Iterator[Optional[MetricsRegistry]]:
    """Install a registry (default: a fresh one) for the block, then restore.

    ``off=True`` force-disables telemetry inside the block instead — the
    disabled-mode tests use it to stay order-independent under a test
    runner that may have enabled the global earlier.
    """
    global _active
    previous = _active
    _active = None if off else (registry if registry is not None else MetricsRegistry())
    try:
        yield _active
    finally:
        _active = previous


class _NullSpan:
    """Shared do-nothing span returned whenever telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """Times one ``with`` block into a histogram child."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._histogram.observe(perf_counter() - self._started)
        return False


def span(
    name: str, registry: Optional[MetricsRegistry] = None, **labels: object
):
    """A context manager timing the block into ``repro_span_seconds``.

    Records into ``registry`` when given, else the global registry, else —
    telemetry off — returns the shared no-op singleton without allocating.
    """
    target = registry if registry is not None else _active
    if target is None:
        return _NULL_SPAN
    return Span(target.histogram(SPAN_FAMILY, _SPAN_HELP, span=name, **labels))
