"""``repro.obs`` — metrics, tracing, and profiling for the PHOcus stack.

Operating a photo-archival service at fleet scale is an observability
problem as much as an algorithmic one: budget decisions ride on
per-request latency and byte telemetry, and the CELF solver's own
health signal — how often laziness actually avoids re-evaluation — is
invisible without counters.  This package is the standing telemetry
layer every other subsystem reports into:

* :mod:`repro.obs.registry` — thread-safe metric families
  (:class:`~repro.obs.registry.Counter`,
  :class:`~repro.obs.registry.Gauge`,
  :class:`~repro.obs.registry.Histogram` with fixed log-scale buckets),
  labelled series under a hard cardinality cap, snapshot/reset.
* :mod:`repro.obs.prom` — Prometheus text exposition (format 0.0.4) of
  a snapshot; what ``GET /metrics`` serves.
* :mod:`repro.obs.trace` — nested spans with monotonic timing and a
  ring buffer of recent history.
* :mod:`repro.obs.probes` — the arm/disarm switch and the full metric
  catalog (:class:`~repro.obs.probes.Instruments`).  Disarmed, every
  probe site costs one global ``None`` test (the :mod:`repro.faults`
  pattern), so tier-1 performance is unaffected by default.
* :mod:`repro.obs.middleware` — per-route HTTP metrics and the opt-in
  structured access log.

Quick use::

    from repro import obs

    obs.arm()                          # process-wide, like faults.arm
    main_algorithm(instance)
    print(obs.render_text())           # Prometheus exposition text

or scrape a running service: ``phocus serve`` arms automatically and
serves ``GET /metrics``.  See ``docs/observability.md`` and the
DESIGN.md "Observability" section for the metric catalog.
"""

from __future__ import annotations

from repro.obs.middleware import AccessLog, observe_request
from repro.obs.probes import Instruments, active, arm, armed, disarm, is_armed
from repro.obs.prom import CONTENT_TYPE, render, render_registry
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_MAX_SERIES,
    Counter,
    FamilySnapshot,
    Gauge,
    Histogram,
    HistogramValue,
    MetricsRegistry,
    SeriesSnapshot,
)
from repro.obs.trace import Span, SpanRecord, Tracer, recent_spans, span

__all__ = [
    # registry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "FamilySnapshot",
    "SeriesSnapshot",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    # prom
    "CONTENT_TYPE",
    "render",
    "render_registry",
    # trace
    "span",
    "Span",
    "SpanRecord",
    "Tracer",
    "recent_spans",
    # probes
    "Instruments",
    "arm",
    "disarm",
    "armed",
    "active",
    "is_armed",
    # middleware
    "AccessLog",
    "observe_request",
    # convenience
    "render_text",
]


def render_text() -> str:
    """Exposition text of the armed registry ('' when disarmed)."""
    instruments = active()
    if instruments is None:
        return ""
    return render_registry(instruments.registry)
