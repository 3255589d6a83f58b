"""Cross-process trace collection for the ensemble runtime.

The supervised multi-worker runtime (:mod:`repro.runtime`) fans a
campaign out across OS processes, and each worker process is its own
observability domain: tracers and metric registries die with the
process unless their contents are shipped out incrementally.  This
module provides the full collection pipeline:

* :class:`SpoolWriter` / :func:`read_spool` — per-worker spool files
  (append-only JSONL in the campaign checkpoint directory) that
  workers flush at heartbeat/checkpoint cadence.  A SIGKILL'd worker
  loses at most its last unflushed window; the reader tolerates a
  torn final line;
* :class:`SpoolingSession` — the worker-side driver: a per-task
  :class:`~repro.obs.trace.Tracer` and a per-process
  :class:`~repro.obs.metrics.MetricsRegistry` installed as the process
  globals, drained to the spool and snapshotted to disk on every
  flush (each event stamped with its ``worker_id`` and ``task_id``,
  the spool header with the campaign ``trace_id``);
* :func:`merge_traces` — deterministic merge of supervisor + worker
  event streams into one timeline: one named Perfetto process track
  per worker (``process_name``/``thread_name`` metadata events),
  timestamps normalised to the earliest event, byte-identical output
  for the same event set regardless of spool grouping or arrival
  order; :class:`MergedTrace` encodes it as the one Chrome
  trace-event (Perfetto) document;
* :func:`aggregate_metrics` — campaign-level metric aggregation:
  counters sum across workers, histograms merge bucket-by-bucket
  (identical bucket ladders required), gauges become per-worker
  labelled series;
* :func:`collect_campaign` — the one-call entry point the supervisor
  uses after a campaign: discover spools, merge, aggregate, and write
  the canonical ``campaign-trace.json`` / ``campaign-metrics.json``
  next to ``campaign.json``.

Timestamps inside spool files are *absolute* tracer-clock readings
(``time.perf_counter``), which on one machine is a shared monotonic
timebase across processes — the merge subtracts the global minimum, so
the merged timeline starts at zero and preserves true cross-process
ordering.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .metrics import MetricsRegistry, set_metrics
from .trace import TRACE_SCHEMA, Tracer, TrackGroup, is_header, set_tracer

__all__ = ["SpoolWriter", "SpoolData", "SpoolingSession",
           "read_spool", "spool_path", "metrics_snapshot_path",
           "find_spools", "merge_traces", "MergedTrace",
           "aggregate_metrics", "collect_campaign", "CampaignCollection",
           "spans_for_task"]

#: Spool files are named so every worker *process* gets its own file
#: (worker ids restart at 0 on ``--resume``; the pid disambiguates).
SPOOL_PREFIX = "obs-worker-"


def spool_path(directory: str | Path, worker_id: int, pid: int) -> Path:
    """The spool file of one worker process inside ``directory``."""
    return Path(directory) / (
        f"{SPOOL_PREFIX}{worker_id:04d}-pid{pid}.spool.jsonl")


def metrics_snapshot_path(directory: str | Path, worker_id: int,
                          pid: int) -> Path:
    """The metrics-snapshot file of one worker process."""
    return Path(directory) / (
        f"{SPOOL_PREFIX}{worker_id:04d}-pid{pid}.metrics.json")


def find_spools(directory: str | Path) -> list[Path]:
    """All worker spool files in a campaign directory, sorted."""
    return sorted(Path(directory).glob(f"{SPOOL_PREFIX}*.spool.jsonl"))


class SpoolWriter:
    """Append-only JSONL event spool for one worker process.

    The file starts with a header line (``kind: "spool"``); every
    :meth:`write` appends one line per event with *absolute*
    tracer-clock timestamps and flushes to the OS, so a SIGKILL loses
    at most the events recorded since the previous flush (plus,
    possibly, a torn final line that :func:`read_spool` skips).
    """

    def __init__(self, path: str | Path, *, pid: int, worker_id: int,
                 trace_id: str | None = None):
        self.path = Path(path)
        self._dropped = 0
        new = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = self.path.open("a", encoding="utf-8")
        if new:
            header: dict[str, Any] = {"schema": TRACE_SCHEMA,
                                      "kind": "spool", "dropped": 0,
                                      "pid": pid, "worker_id": worker_id}
            if trace_id is not None:
                header["trace_id"] = trace_id
            self._fh.write(json.dumps(header) + "\n")
            self._fh.flush()

    def write(self, track: TrackGroup) -> int:
        """Append a drained :meth:`Tracer.track_group` (absolute
        timestamps); returns the number of event lines written.

        The track's trailing ``trace.dropped`` instant is kept only when
        the cumulative drop count grew since the last write, so each
        increase lands in the spool once and the cap is never silent
        even when the process later dies.
        """
        events = track.events
        if track.dropped:
            if track.dropped <= self._dropped:
                events = events[:-1]
            self._dropped = track.dropped
        for d in events:
            self._fh.write(json.dumps(d) + "\n")
        if events:
            self._fh.flush()
        return len(events)

    def close(self) -> None:
        self._fh.close()


@dataclass
class SpoolData:
    """Parsed contents of one worker spool file."""

    path: Path
    header: dict[str, Any] | None
    events: list[dict[str, Any]]
    #: True when the file ended mid-line (the writer was killed while
    #: flushing); everything before the tear was still recovered.
    truncated: bool = False

    @property
    def worker_id(self) -> int | None:
        return (self.header or {}).get("worker_id")

    @property
    def pid(self) -> int | None:
        return (self.header or {}).get("pid")

    @property
    def dropped(self) -> int:
        """Cumulative drop count (from ``trace.dropped`` instants)."""
        out = 0
        for e in self.events:
            if e.get("name") == "trace.dropped":
                out = max(out, int(e.get("args", {}).get("dropped", 0)))
        return out


def read_spool(path: str | Path) -> SpoolData:
    """Parse a spool file, tolerating a torn (SIGKILL) final line."""
    path = Path(path)
    header: dict[str, Any] | None = None
    events: list[dict[str, Any]] = []
    truncated = False
    with path.open(encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError:
                truncated = True
                break
            if i == 0 and is_header(obj):
                header = obj
            else:
                events.append(obj)
    return SpoolData(path=path, header=header, events=events,
                     truncated=truncated)


class SpoolingSession:
    """Worker-side observability driver for the ensemble runtime.

    One instance lives for the worker process's lifetime: the metrics
    registry accumulates across tasks (so per-worker counter sums are
    meaningful), while each task gets a fresh tracer stamped with the
    worker and task ids; the campaign ``trace_id`` goes into the spool
    header.  Events are drained to the spool and the metrics snapshot
    rewritten atomically on every :meth:`flush` — called from the
    worker's heartbeat/checkpoint callback, so a SIGKILL'd worker
    leaves behind everything up to its last flush.
    """

    def __init__(self, spool_dir: str | Path, worker_id: int, *,
                 trace: bool = True, metrics: bool = True,
                 trace_id: str | None = None,
                 max_events: int = 1_000_000):
        self.worker_id = worker_id
        self.pid = os.getpid()
        self.max_events = max_events
        self.spool = (SpoolWriter(
            spool_path(spool_dir, worker_id, self.pid), pid=self.pid,
            worker_id=worker_id, trace_id=trace_id) if trace else None)
        self.registry = MetricsRegistry() if metrics else None
        self.metrics_path = metrics_snapshot_path(spool_dir, worker_id,
                                                  self.pid)
        self.tracer: Tracer | None = None
        self._prev_tracer: Tracer | None = None
        self._prev_registry: MetricsRegistry | None = None

    def begin_task(self, task_id: int) -> None:
        """Install per-task observability as the process globals."""
        if self.spool is not None:
            self.tracer = Tracer(max_events=self.max_events,
                                 worker_id=self.worker_id,
                                 task_id=task_id)
            self.tracer.instant("worker.task_begin", task=task_id,
                                worker=self.worker_id)
        self._prev_tracer = set_tracer(self.tracer)
        if self.registry is not None:
            self._prev_registry = set_metrics(self.registry)
        self.flush()

    def flush(self) -> None:
        """Drain trace events to the spool; snapshot the metrics."""
        if self.tracer is not None and self.spool is not None:
            self.spool.write(self.tracer.track_group(drain=True))
        if self.registry is not None:
            _write_json_atomic(self.metrics_path,
                               self.registry.to_json())

    def end_task(self, outcome: str) -> None:
        """Record the task outcome, flush, restore the globals."""
        if self.tracer is not None:
            self.tracer.instant("worker.task_end", outcome=outcome)
        self.flush()
        set_tracer(self._prev_tracer)
        if self.registry is not None:
            set_metrics(self._prev_registry)
        self.tracer = None

    def close(self) -> None:
        if self.spool is not None:
            self.spool.close()


def _write_json_atomic(path: Path, doc: dict[str, Any]) -> None:
    """tmp + rename so a mid-write SIGKILL never leaves a torn file."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------

@dataclass
class MergedTrace:
    """One deterministic cross-process timeline.

    ``events`` carry normalised timestamps (seconds from the earliest
    event across every process) and keep their identity fields
    (``pid``/``worker_id``/``task_id``), so the Chrome document groups
    them into named per-worker process tracks.
    """

    events: list[dict[str, Any]]
    groups: list[TrackGroup]
    trace_id: str | None = None

    @property
    def dropped(self) -> int:
        return sum(g.dropped for g in self.groups)

    def header(self) -> dict[str, Any]:
        out: dict[str, Any] = {"schema": TRACE_SCHEMA, "kind": "merged",
                               "dropped": self.dropped,
                               "processes": len(self.groups)}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        truncated = sorted(g.worker_id for g in self.groups
                           if g.truncated and g.worker_id is not None)
        if truncated:
            out["truncated_workers"] = truncated
        return out

    def to_chrome_trace(self) -> dict[str, Any]:
        """The merged Perfetto document: metadata tracks + events."""
        trace_events: list[dict[str, Any]] = []
        ordered = sorted(self.groups, key=_group_sort_key)
        tids_by_pid: dict[int, list[int]] = {}
        for e in self.events:
            tids = tids_by_pid.setdefault(int(e.get("pid", 0)), [])
            tid = int(e["tid"])
            if tid not in tids:
                tids.append(tid)
        for sort_index, group in enumerate(ordered):
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": group.pid,
                "tid": 0, "ts": 0, "args": {"name": group.label}})
            trace_events.append({
                "name": "process_sort_index", "ph": "M",
                "pid": group.pid, "tid": 0, "ts": 0,
                "args": {"sort_index": sort_index}})
            for k, tid in enumerate(sorted(tids_by_pid.get(group.pid,
                                                           []))):
                trace_events.append({
                    "name": "thread_name", "ph": "M", "pid": group.pid,
                    "tid": tid, "ts": 0,
                    "args": {"name": "main" if k == 0
                             else f"thread-{k}"}})
        for e in self.events:
            entry: dict[str, Any] = {
                "name": e["name"],
                "cat": str(e["name"]).split(".", 1)[0],
                "ph": e["ph"],
                "pid": int(e.get("pid", 0)),
                "tid": int(e["tid"]),
                "ts": e["ts"] * 1e6,
            }
            if e["ph"] == "X":
                entry["dur"] = e["dur"] * 1e6
            else:
                entry["s"] = "t"
            args = dict(e.get("args", {}))
            args.setdefault("depth", e.get("depth", 0))
            if e.get("worker_id") is not None:
                args.setdefault("worker_id", e["worker_id"])
            if e.get("task_id") is not None:
                args.setdefault("task_id", e["task_id"])
            entry["args"] = args
            trace_events.append(entry)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": self.header()}

    def write_chrome_trace(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome_trace()),
                        encoding="utf-8")
        return path


def _group_sort_key(group: TrackGroup) -> tuple[int, int, int]:
    # supervisor first, then workers by id (pid breaks ties so the
    # order is total even with recycled worker ids)
    return (0 if group.worker_id is None else 1,
            -1 if group.worker_id is None else group.worker_id,
            group.pid)


def _event_sort_key(e: dict[str, Any]) -> tuple:
    args = e.get("args") or {}
    return (float(e["ts"]), int(e.get("pid", 0)), int(e["tid"]),
            int(e.get("depth", 0)), str(e["name"]), float(e["dur"]),
            str(e["ph"]), json.dumps(args, sort_keys=True))


def merge_traces(groups: Iterable[TrackGroup],
                 trace_id: str | None = None) -> MergedTrace:
    """Merge per-process event streams into one deterministic timeline.

    Timestamps are normalised by the earliest event over *all* groups
    and events sorted on a total key ``(ts, pid, tid, depth, name,
    dur, ph, args)`` — so the output is byte-identical for a given
    event set regardless of how events were grouped into spools or in
    what order they arrived.
    """
    groups = list(groups)
    all_events: list[dict[str, Any]] = []
    for group in groups:
        for e in group.events:
            d = dict(e)
            d.setdefault("pid", group.pid)
            if group.worker_id is not None:
                d.setdefault("worker_id", group.worker_id)
            all_events.append(d)
    t0 = min((float(e["ts"]) for e in all_events), default=0.0)
    for d in all_events:
        d["ts"] = float(d["ts"]) - t0
    all_events.sort(key=_event_sort_key)
    return MergedTrace(events=all_events, groups=groups,
                       trace_id=trace_id)


def spans_for_task(events: Iterable[dict[str, Any]],
                   task_id: int) -> list[dict[str, Any]]:
    """Every event correlated to one campaign task.

    Takes :attr:`MergedTrace.events` or the ``traceEvents`` of the
    Chrome document.  Matches the worker spans' ``task_id`` (an event
    field, or an ``args`` entry in the Chrome form) and the supervisor
    spans' ``task`` argument — the two ends of the cross-process
    correlation.
    """
    out = []
    for e in events:
        args = e.get("args") or {}
        if e.get("task_id") == task_id or args.get("task") == task_id \
                or args.get("task_id") == task_id:
            out.append(e)
    return out


# ----------------------------------------------------------------------
# metric aggregation
# ----------------------------------------------------------------------

def aggregate_metrics(
        docs: Iterable[tuple[dict[str, Any], dict[str, str]]]
) -> MetricsRegistry:
    """Aggregate metrics-JSON documents into one registry.

    ``docs`` is an iterable of ``(metrics_json_document,
    extra_labels)`` pairs.  Aggregation semantics:

    * **counters** sum across documents (no extra labels — a campaign
      total),
    * **histograms** merge bucket-by-bucket; mismatched bucket
      ladders for the same series raise ``ValueError`` (merging them
      silently would fabricate counts),
    * **gauges** keep ``extra_labels`` (the supervisor passes
      ``{"worker": "<id>"}`` per worker), since a last-write-wins
      value has no meaningful cross-process sum.
    """
    registry = MetricsRegistry()
    for doc, extra in docs:
        for family in doc.get("metrics", []):
            name, kind = family["name"], family["type"]
            help_ = family.get("help", "")
            for series in family["series"]:
                labels = {str(k): str(v)
                          for k, v in series["labels"].items()}
                if kind == "counter":
                    registry.counter(name, help_,
                                     **labels).inc(series["value"])
                elif kind == "gauge":
                    registry.gauge(name, help_,
                                   **{**labels, **extra}
                                   ).set(series["value"])
                else:
                    bounds = tuple(b["le"] for b in series["buckets"])
                    hist = registry.histogram(name, help_,
                                              buckets=bounds, **labels)
                    if hist.buckets != bounds:
                        raise ValueError(
                            f"histogram {name!r}: mismatched buckets "
                            f"{hist.buckets} vs {bounds}")
                    for i, b in enumerate(series["buckets"]):
                        hist.counts[i] += int(b["count"])
                    hist.count += int(series["count"])
                    hist.sum += float(series["sum"])
                    if series.get("min") is not None:
                        hist.min = min(hist.min, float(series["min"]))
                    if series.get("max") is not None:
                        hist.max = max(hist.max, float(series["max"]))
    return registry


# ----------------------------------------------------------------------
# campaign collection (the supervisor-side entry point)
# ----------------------------------------------------------------------

@dataclass
class CampaignCollection:
    """Everything observability collected from one campaign."""

    merged: MergedTrace
    metrics: MetricsRegistry
    spools: list[SpoolData] = field(default_factory=list)
    #: Canonical files written next to ``campaign.json``.
    outputs: dict[str, Path] = field(default_factory=dict)

    @property
    def recovered_events(self) -> int:
        """Worker events recovered from spool files."""
        return sum(len(s.events) for s in self.spools)

    def summary(self) -> str:
        parts = [f"{len(self.merged.events)} events across "
                 f"{len(self.merged.groups)} processes",
                 f"{self.recovered_events} recovered from "
                 f"{len(self.spools)} worker spools"]
        if self.merged.dropped:
            parts.append(f"{self.merged.dropped} dropped")
        truncated = [s.worker_id for s in self.spools if s.truncated]
        if truncated:
            parts.append(f"torn spools recovered: workers {truncated}")
        return "; ".join(parts)

    def write_defaults(self, directory: str | Path) -> dict[str, Path]:
        """Write the canonical campaign exports into ``directory``."""
        directory = Path(directory)
        self.outputs["trace"] = self.merged.write_chrome_trace(
            directory / "campaign-trace.json")
        self.outputs["metrics"] = self.metrics.write(
            directory / "campaign-metrics.json")
        return self.outputs


def collect_campaign(directory: str | Path, *,
                     supervisor_tracer: Tracer | None = None,
                     supervisor_registry: MetricsRegistry | None = None,
                     trace_id: str | None = None) -> CampaignCollection:
    """Collect and merge a campaign's observability from disk.

    Reads every worker spool + metrics snapshot in ``directory``,
    folds in the supervisor's own tracer/registry, and returns the
    merged timeline plus the aggregated registry.  Safe to call on a
    directory with no spools (single-process campaign with
    observability off in the workers).
    """
    directory = Path(directory)
    groups: list[TrackGroup] = []
    spools: list[SpoolData] = []

    if supervisor_tracer is not None:
        groups.append(supervisor_tracer.track_group("supervisor"))

    for path in find_spools(directory):
        data = read_spool(path)
        if data.header is None and not data.events:
            continue
        spools.append(data)
        worker_id = data.worker_id if data.worker_id is not None else -1
        pid = data.pid if data.pid is not None else 0
        groups.append(TrackGroup(
            label=f"worker-{worker_id}", pid=pid, events=data.events,
            worker_id=worker_id, dropped=data.dropped,
            truncated=data.truncated))

    merged = merge_traces(groups, trace_id=trace_id)

    docs: list[tuple[dict[str, Any], dict[str, str]]] = []
    if supervisor_registry is not None:
        docs.append((supervisor_registry.to_json(), {}))
    for snapshot in sorted(directory.glob(
            f"{SPOOL_PREFIX}*.metrics.json")):
        try:
            doc = json.loads(snapshot.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue  # torn snapshot: the atomic writer's tmp survived
        worker = snapshot.name[len(SPOOL_PREFIX):].split("-", 1)[0]
        docs.append((doc, {"worker": str(int(worker))}))
    metrics = aggregate_metrics(docs)

    return CampaignCollection(merged=merged, metrics=metrics,
                              spools=spools)
