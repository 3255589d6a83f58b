"""repro.obs — unified tracing, metrics and solver telemetry.

The observability layer every other subsystem reports into (the
instrumentation behind the paper's Section V evaluation):

* :mod:`repro.obs.trace` — span-based tracer with thread-safe nesting;
* :mod:`repro.obs.collect` — the trace merge and its JSONL and Chrome
  ``chrome://tracing`` / Perfetto encoders (one process or a whole
  campaign), plus the ensemble's cross-process spools;
* :mod:`repro.obs.metrics` — counters, gauges and histograms with
  Prometheus-text and JSON export;
* :mod:`repro.obs.schema` — published schemas + validators for every
  export format (also ``python -m repro.obs.schema FILE...``);
* :mod:`repro.obs.profiling` — the ``repro profile`` engine producing
  the paper-style Fig. 5 phase table with measured-vs-predicted
  columns (imported lazily; it pulls in the simulation stack).

Both tracing and metrics are process-global and **disabled by
default**; the instrumented code pays one ``is None`` guard per call
site when off, and installing them never perturbs numerics or RNG
streams.  Typical usage::

    from repro import obs

    tracer, registry = obs.enable()
    ...  # run a simulation
    obs.disable()
    obs.merge_traces([tracer.track_group()]).write_jsonl("out.jsonl")
    registry.write("out.prom")

Inside library code, use the fast-path facades::

    with obs.span("pme.spread", n=n):
        ...
    obs.inc("pme_applications_total", s)
"""

from __future__ import annotations

from .collect import (
    CampaignCollection,
    MergedTrace,
    SpoolingSession,
    SpoolWriter,
    TraceContext,
    TrackGroup,
    aggregate_metrics,
    collect_campaign,
    merge_traces,
    read_spool,
    spans_for_task,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    inc,
    metrics_enabled,
    observe,
    record_solver,
    set_gauge,
    set_metrics,
)
from .schema import (
    METRICS_JSON_SCHEMA,
    TRACE_EVENT_SCHEMA,
    validate_chrome_trace,
    validate_metrics_json,
    validate_prometheus_text,
    validate_trace_events,
)
from .trace import (
    TRACE_SCHEMA,
    SpanEvent,
    Tracer,
    clock,
    get_tracer,
    instant,
    read_jsonl,
    read_jsonl_header,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "SpanEvent", "Tracer", "span", "instant", "get_tracer", "set_tracer",
    "tracing_enabled", "read_jsonl", "read_jsonl_header", "clock",
    "TRACE_SCHEMA",
    "TraceContext", "SpoolWriter", "SpoolingSession", "TrackGroup",
    "MergedTrace", "merge_traces", "read_spool", "aggregate_metrics",
    "collect_campaign", "CampaignCollection", "spans_for_task",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_metrics",
    "set_metrics", "metrics_enabled", "inc", "observe", "set_gauge",
    "record_solver",
    "TRACE_EVENT_SCHEMA", "METRICS_JSON_SCHEMA", "validate_trace_events",
    "validate_chrome_trace", "validate_metrics_json",
    "validate_prometheus_text",
    "enable", "disable",
]


def enable(max_events: int = 1_000_000
           ) -> tuple[Tracer, MetricsRegistry]:
    """Install a fresh global tracer + metrics registry; returns both."""
    tracer = Tracer(max_events=max_events)
    registry = MetricsRegistry()
    set_tracer(tracer)
    set_metrics(registry)
    return tracer, registry


def disable() -> None:
    """Remove the global tracer and metrics registry."""
    set_tracer(None)
    set_metrics(None)
