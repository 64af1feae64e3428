"""``repro.obs`` — observability: metrics, tracing, run manifests.

The subsystem has four parts (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges
  and fixed-bucket histograms with label support;
* :mod:`repro.obs.tracing` — ``span("phase")`` wall-clock profile trees;
* :mod:`repro.obs.manifest` — :class:`RunManifest` reproducibility records;
* :mod:`repro.obs.export` — JSON and console exporters.

Instrumented code talks to the **ambient session**: a process-wide
``(registry, tracer)`` pair that defaults to *disabled* (null instruments,
no-op spans), so the library costs nothing unless a driver opts in::

    with obs.session() as (registry, tracer):
        result = PacketSimulator(...).run(0.3)
        export_json("metrics.json", registry, tracer, RunManifest.capture())

``session()`` is the one switch: instrumented code reads whichever pair
is ambient when it runs.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import (
    console_summary,
    export_json,
    load_json,
    session_snapshot,
)
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.metrics import (
    CardinalityError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    exponential_buckets,
)
from repro.obs.tracing import NULL_TRACER, SpanNode, Tracer

__all__ = [
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_TRACER",
    "RunManifest",
    "SpanNode",
    "Tracer",
    "console_summary",
    "exponential_buckets",
    "export_json",
    "get_registry",
    "get_tracer",
    "git_revision",
    "load_json",
    "session",
    "session_snapshot",
    "span",
]

#: Ambient session: disabled by default so importing the library is free.
_REGISTRY = MetricsRegistry(enabled=False)
_TRACER = NULL_TRACER


def get_registry() -> MetricsRegistry:
    """The ambient metrics registry (disabled unless a driver enabled it)."""
    return _REGISTRY


def get_tracer():
    """The ambient tracer (the null tracer when observability is off)."""
    return _TRACER


def span(name: str):
    """Open a profiling span on the ambient tracer (no-op when disabled)."""
    return _TRACER.span(name)


@contextmanager
def session(max_label_sets: int = 4096):
    """Scoped enabled session; restores the previous ambient pair on exit.

    Yields ``(registry, tracer)`` so the body can export on the way out.
    """
    global _REGISTRY, _TRACER
    prev = (_REGISTRY, _TRACER)
    registry, tracer = MetricsRegistry(True, max_label_sets), Tracer()
    _REGISTRY, _TRACER = registry, tracer
    try:
        yield registry, tracer
    finally:
        _REGISTRY, _TRACER = prev
