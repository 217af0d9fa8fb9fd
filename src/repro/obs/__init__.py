"""Unified observability: tracing and metrics for the IC pipeline.

One dependency-free subsystem answering "what was the run doing, and
for how long?" across every layer that PRs 1-4 built — lazy product
exploration, worklist fixpoints, budgets, matrix fan-out, checkpoints,
pattern-matcher caches:

* :mod:`repro.obs.trace` — nested spans with monotonic timing, a JSONL
  exporter (``scripts/trace_report.py`` reads it) and an in-memory
  collector for tests;
* :mod:`repro.obs.metrics` — counters/gauges/histograms and the one
  metrics protocol: every stats, cell and report type yields
  ``(kind, name, value)`` triples from ``metrics()``, and
  ``MetricsRegistry.absorb(*sources)`` folds any of them into one
  snapshot dict.

The overhead contract, pinned by tests the way ``budget=None`` is: the
module-level default tracer (:data:`NOOP_TRACER`) is an
allocation-free no-op, and verdicts with observability enabled are
bit-for-bit identical to verdicts without it.  Metrics cost nothing
until a caller builds a registry: no pipeline code records into one.
"""

from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics_table,
    format_stats,
)
from repro.obs.trace import (
    InMemorySpanCollector,
    JsonlSpanExporter,
    NOOP_SPAN,
    NOOP_TRACER,
    Span,
    SpanExporter,
    Tracer,
    current_tracer,
    install_tracer,
    installed_tracer,
    jsonl_tracing,
    read_trace,
    span_to_record,
)

__all__ = [
    "Counter",
    "DEFAULT_MS_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemorySpanCollector",
    "JsonlSpanExporter",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "Span",
    "SpanExporter",
    "Tracer",
    "current_tracer",
    "format_metrics_table",
    "format_stats",
    "install_tracer",
    "installed_tracer",
    "jsonl_tracing",
    "read_trace",
    "span_to_record",
]
