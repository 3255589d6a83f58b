"""Span-based tracing for the BD pipeline.

A :class:`Tracer` records *spans* — named, timed, attributed intervals
— with thread-safe nesting, plus zero-duration *instant* events (used
by the recovery ladder).  It only records: :meth:`Tracer.track_group`
hands its events to :func:`repro.obs.collect.merge_traces`, whose
:class:`~repro.obs.collect.MergedTrace` is the one JSONL and Chrome
trace-event encoder — for one process as for a whole campaign.

Tracing is **opt-in and near-free when off**: the module-level
:func:`span` / :func:`instant` facades check one global and return a
shared no-op context manager when no tracer is installed, so the
instrumented numerical code pays a single attribute load + ``is None``
test per call site.  Installing a tracer never touches the numerics or
the RNG stream — traced and untraced runs are bit-identical.

Span names are dotted, coarse-to-fine (``pme.spread``,
``krylov.block_lanczos``, ``bd.mobility`` — see
``docs/observability.md`` for the full taxonomy).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["SpanEvent", "TrackGroup", "Tracer", "span", "instant",
           "get_tracer", "set_tracer", "tracing_enabled", "read_jsonl",
           "read_jsonl_header", "clock", "NULL_SPAN", "TRACE_SCHEMA"]

#: Version tag of the trace event/stream layout.  v2 adds the optional
#: process-identity fields (``pid``/``worker_id``/``task_id``) and the
#: JSONL header line carrying ``dropped`` — v1 streams (no header, no
#: identity fields) still validate.
TRACE_SCHEMA = "repro-trace/2"


@dataclass
class SpanEvent:
    """One recorded trace event.

    Attributes
    ----------
    name:
        Dotted span name (``"pme.fft"``).
    ts:
        Start time in seconds relative to the tracer's epoch.
    dur:
        Duration in seconds (0.0 for instant events).
    tid:
        Identifier of the recording thread.
    depth:
        Nesting depth within the recording thread (0 = top level).
    phase:
        ``"X"`` for a complete span, ``"i"`` for an instant event
        (Chrome trace-event phase letters).
    args:
        Free-form attributes attached at the call site.
    pid:
        Recording process id (schema v2; stamped by the tracer so
        multi-process merges keep events attributable).
    worker_id:
        Ensemble worker that recorded the event (``None`` outside the
        multi-process runtime).
    task_id:
        Campaign task the event belongs to (``None`` outside a task).
    """

    name: str
    ts: float
    dur: float
    tid: int
    depth: int
    phase: str = "X"
    args: dict[str, Any] = field(default_factory=dict)
    pid: int | None = None
    worker_id: int | None = None
    task_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the JSONL export."""
        out: dict[str, Any] = {"name": self.name, "ph": self.phase,
                               "ts": self.ts, "dur": self.dur,
                               "tid": self.tid, "depth": self.depth}
        if self.pid is not None:
            out["pid"] = self.pid
        if self.worker_id is not None:
            out["worker_id"] = self.worker_id
        if self.task_id is not None:
            out["task_id"] = self.task_id
        if self.args:
            out["args"] = self.args
        return out


@dataclass
class TrackGroup:
    """One process track feeding the merge (supervisor or a worker)."""

    label: str
    pid: int
    #: Event dicts with *absolute* tracer-clock ``ts`` (seconds).
    events: list[dict[str, Any]]
    worker_id: int | None = None
    dropped: int = 0
    truncated: bool = False


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


#: Shared do-nothing context manager (also used by instrumentation that
#: wants to skip span construction entirely on its own fast path).
NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one span into a tracer."""

    __slots__ = ("_tracer", "name", "args", "_t0", "_depth")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._depth = self._tracer._push()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter() - self._t0
        self._tracer._pop()
        self._tracer._record(self.name, self._t0, dur, self._depth,
                             "X", self.args)


class Tracer:
    """Collects :class:`SpanEvent` records from any number of threads.

    Parameters
    ----------
    max_events:
        Safety cap on stored events; once reached, further events are
        counted in :attr:`dropped` instead of stored (an unbounded
        month-long run must not exhaust memory through its telemetry).
        A spooling consumer that calls :meth:`drain` periodically
        effectively turns the cap into a per-flush-window bound.
    worker_id, task_id:
        Optional trace context (schema v2) stamped on every recorded
        event — the ensemble runtime propagates these so merged
        multi-process traces stay attributable and correlatable.
    """

    def __init__(self, max_events: int = 1_000_000, *,
                 worker_id: int | None = None,
                 task_id: int | None = None):
        self.epoch = time.perf_counter()
        self.max_events = int(max_events)
        self.events: list[SpanEvent] = []
        #: Events discarded after ``max_events`` was reached.
        self.dropped = 0
        self.pid = os.getpid()
        self.worker_id = worker_id
        self.task_id = task_id
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording (internal API used by _Span and the facades) ----------

    def _push(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _pop(self) -> None:
        self._local.depth -= 1

    def _record(self, name: str, t0: float, dur: float, depth: int,
                phase: str, args: dict[str, Any]) -> None:
        event = SpanEvent(name=name, ts=t0 - self.epoch, dur=dur,
                          tid=threading.get_ident(), depth=depth,
                          phase=phase, args=args, pid=self.pid,
                          worker_id=self.worker_id, task_id=self.task_id)
        with self._lock:
            if len(self.events) < self.max_events:
                self.events.append(event)
            else:
                self.dropped += 1

    def drain(self) -> list[SpanEvent]:
        """Atomically remove and return the recorded events.

        Used by spooling consumers (the ensemble workers) to ship
        events incrementally with bounded memory: :attr:`dropped`
        stays cumulative across drains, and draining frees the whole
        ``max_events`` budget for the next flush window.
        """
        with self._lock:
            events, self.events = self.events, []
        return events

    # -- public recording API --------------------------------------------

    def span(self, name: str, **args: Any) -> _Span:
        """Context manager timing one span named ``name``."""
        return _Span(self, name, args)

    def instant(self, name: str, **args: Any) -> None:
        """Record a zero-duration event (e.g. a recovery action)."""
        self._record(name, time.perf_counter(), 0.0,
                     getattr(self._local, "depth", 0), "i", args)

    def add_interval(self, name: str, t0: float, dur: float,
                     **args: Any) -> None:
        """Record an externally timed interval (``t0`` in perf-counter
        time) — used by :class:`~repro.utils.timing.PhaseTimer` so span
        durations coincide with the timer's own measurement."""
        self._record(name, t0, dur, getattr(self._local, "depth", 0),
                     "X", args)

    # -- aggregation -------------------------------------------------------

    def totals(self, prefix: str = "") -> dict[str, float]:
        """Accumulated seconds per span name (optionally filtered).

        Only top-level occurrences of each *name* are summed — i.e. a
        reentrant span nested inside itself is not double counted —
        but distinct nested names each report their own total.
        """
        out: dict[str, float] = {}
        with self._lock:
            events = list(self.events)
        for e in events:
            if e.phase != "X" or not e.name.startswith(prefix):
                continue
            out[e.name] = out.get(e.name, 0.0) + e.dur
        return out

    def counts(self, prefix: str = "") -> dict[str, int]:
        """Number of spans per name (optionally filtered by prefix)."""
        out: dict[str, int] = {}
        with self._lock:
            events = list(self.events)
        for e in events:
            if e.phase != "X" or not e.name.startswith(prefix):
                continue
            out[e.name] = out.get(e.name, 0) + 1
        return out

    def track_group(self, label: str = "main", *,
                    drain: bool = False) -> TrackGroup:
        """The recorded events as one merge track, absolute timestamps.

        When the ``max_events`` cap dropped events, a trailing
        ``trace.dropped`` instant carries the cumulative count (no
        silent drops).  ``drain=True`` removes the returned events from
        the tracer, as :meth:`drain` does.
        """
        if drain:
            events = self.drain()
        else:
            with self._lock:
                events = list(self.events)
        dropped = self.dropped
        if dropped:
            events.append(SpanEvent(
                name="trace.dropped", ts=time.perf_counter() - self.epoch,
                dur=0.0, tid=threading.get_ident(), depth=0, phase="i",
                args={"dropped": dropped, "max_events": self.max_events},
                pid=self.pid, worker_id=self.worker_id,
                task_id=self.task_id))
        out = []
        for e in events:
            d = e.to_dict()
            d["ts"] += self.epoch
            out.append(d)
        return TrackGroup(label=label, pid=self.pid, events=out,
                          worker_id=self.worker_id, dropped=dropped)


def is_header(obj: dict[str, Any]) -> bool:
    """Whether a parsed JSONL line is a stream header, not an event."""
    return "schema" in obj and "name" not in obj


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace back into event dictionaries.

    A leading schema-v2 header line is skipped (use
    :func:`read_jsonl_header` to read it).
    """
    out = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj = json.loads(line)
                if not out and is_header(obj):
                    continue
                out.append(obj)
    return out


def read_jsonl_header(path: str | Path) -> dict[str, Any] | None:
    """The stream header of a JSONL trace (``None`` for v1 streams)."""
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj = json.loads(line)
                return obj if is_header(obj) else None
    return None


def clock() -> float:
    """A reading of the tracer clock (for externally timed intervals).

    :meth:`Tracer.add_interval` interprets ``t0`` on this clock;
    callers outside the timing/obs layers must use this helper rather
    than a direct ``time.perf_counter()`` so every interval stays on
    the single tracer timebase (``time.monotonic`` — the
    :func:`repro.utils.timing.now` scheduler clock — is *not*
    guaranteed to share an epoch with it on every platform).
    """
    return time.perf_counter()


# ----------------------------------------------------------------------
# the process-global tracer and its fast-path facades
# ----------------------------------------------------------------------

_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed global tracer (``None`` when tracing is off)."""
    return _TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or remove, with ``None``) the global tracer.

    Returns the previously installed tracer so callers can restore it.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def tracing_enabled() -> bool:
    """Whether a global tracer is installed."""
    return _TRACER is not None


def span(name: str, **args: Any):
    """Span against the global tracer; no-op singleton when disabled."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **args)


def instant(name: str, **args: Any) -> None:
    """Instant event against the global tracer; no-op when disabled."""
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(name, **args)
