"""repro.obs — unified tracing, metrics and solver telemetry.

The observability layer every other subsystem reports into (the
instrumentation behind the paper's Section V evaluation):

* :mod:`repro.obs.trace` — span-based tracer with thread-safe nesting,
  the two clocks (:func:`clock` for intervals, :func:`now` for
  schedulers) and :class:`PhaseTimer`, the per-phase accumulator
  behind ``phase_breakdown()`` — the package's one timing module;
* :mod:`repro.obs.collect` — the trace merge and its one encoder, the
  Chrome trace-event document that ``chrome://tracing`` and Perfetto
  load (one process or a whole campaign), plus the ensemble's
  cross-process spools;
* :mod:`repro.obs.metrics` — counters, gauges and histograms with a
  JSON export;
* :mod:`repro.obs.schema` — published schemas + validators for both
  export documents (also ``python -m repro.obs.schema FILE...``);
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
    obs.merge_traces([tracer.track_group()]).write_chrome_trace(
        "trace.json")
    registry.write("metrics.json")

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
    validate_chrome_trace,
    validate_metrics_json,
)
from .trace import (
    TRACE_SCHEMA,
    PhaseTimer,
    SpanEvent,
    Tracer,
    clock,
    get_tracer,
    instant,
    now,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "SpanEvent", "Tracer", "span", "instant", "get_tracer", "set_tracer",
    "tracing_enabled", "clock", "now", "PhaseTimer", "TRACE_SCHEMA",
    "SpoolWriter", "SpoolingSession", "TrackGroup",
    "MergedTrace", "merge_traces", "read_spool", "aggregate_metrics",
    "collect_campaign", "CampaignCollection", "spans_for_task",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_metrics",
    "set_metrics", "metrics_enabled", "inc", "observe", "set_gauge",
    "record_solver",
    "METRICS_JSON_SCHEMA", "validate_chrome_trace",
    "validate_metrics_json",
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
