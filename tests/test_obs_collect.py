"""Tests for repro.obs.collect: spools, merging, metric aggregation.

The cross-process collection pipeline is exercised here at the unit
level (spool round trips, torn-line recovery, deterministic merges,
aggregation semantics); the full supervisor/worker integration lives
in ``tests/test_runtime.py``.
"""

import json
import os

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.collect import (
    SpoolingSession,
    SpoolWriter,
    TraceContext,
    TrackGroup,
    aggregate_metrics,
    find_spools,
    merge_traces,
    metrics_snapshot_path,
    read_spool,
    spans_for_task,
    spool_path,
)
from repro.obs.schema import (
    SchemaError,
    validate_chrome_trace,
    validate_file,
    validate_trace_header,
)
from repro.obs.trace import TRACE_SCHEMA, read_jsonl, read_jsonl_header


@pytest.fixture(autouse=True)
def _clean_obs_globals():
    """Every test starts and ends with observability disabled."""
    previous_tracer = obs.set_tracer(None)
    previous_registry = obs.set_metrics(None)
    yield
    obs.set_tracer(previous_tracer)
    obs.set_metrics(previous_registry)


def _event(name="w.step", ts=1.0, dur=0.5, tid=1, pid=100,
           worker_id=None, task_id=None, **args):
    out = {"name": name, "ph": "X" if dur else "i", "ts": ts,
           "dur": dur, "tid": tid, "depth": 0, "pid": pid}
    if worker_id is not None:
        out["worker_id"] = worker_id
    if task_id is not None:
        out["task_id"] = task_id
    if args:
        out["args"] = args
    return out


# ----------------------------------------------------------------------
# trace context + schema v2
# ----------------------------------------------------------------------

class TestTraceContext:
    def test_json_roundtrip(self):
        ctx = TraceContext(trace_id="campaign-abc123", task_id=4)
        assert TraceContext.from_json(ctx.to_json()) == ctx

    def test_task_spec_carries_context_on_the_wire_only(self):
        from repro.runtime.tasks import TaskSpec

        spec = TaskSpec(task_id=2, n=10, phi=0.1, n_steps=5, seed=1,
                        system_seed=2)
        assert "trace" not in spec.to_json()  # manifests stay stable

        import dataclasses
        stamped = dataclasses.replace(
            spec, trace=TraceContext(trace_id="campaign-x", task_id=2))
        wire = stamped.to_json()
        assert wire["trace"] == {"trace_id": "campaign-x", "task_id": 2}
        back = TaskSpec.from_json(wire)
        assert back.trace == stamped.trace
        # identity fields unaffected by the stamp
        assert back.seed == spec.seed and back.task_id == spec.task_id

    def test_tracer_stamps_identity_fields(self):
        tracer = obs.Tracer(worker_id=3, task_id=7)
        with tracer.span("x"):
            pass
        (event,) = tracer.events
        assert (event.pid, event.worker_id, event.task_id) == \
            (os.getpid(), 3, 7)
        d = event.to_dict()
        assert (d["pid"], d["worker_id"], d["task_id"]) == \
            (os.getpid(), 3, 7)

    def test_header_schema_and_validation(self):
        tracer = obs.Tracer(worker_id=1)
        header = merge_traces([tracer.track_group()]).header()
        assert header["schema"] == TRACE_SCHEMA
        assert header["dropped"] == 0
        assert (header["kind"], header["processes"]) == ("merged", 1)
        validate_trace_header(header)
        with pytest.raises(SchemaError):
            validate_trace_header({"schema": "other/1", "dropped": 0})
        with pytest.raises(SchemaError):
            validate_trace_header({"schema": TRACE_SCHEMA, "dropped": -1})

    def test_jsonl_header_roundtrip(self, tmp_path):
        tracer = obs.Tracer(worker_id=5)
        with tracer.span("a"):
            pass
        path = merge_traces([tracer.track_group()]).write_jsonl(
            tmp_path / "t.jsonl")
        header = read_jsonl_header(path)
        assert header["kind"] == "merged"
        events = read_jsonl(path)  # header line skipped
        assert [e["name"] for e in events] == ["a"]
        assert events[0]["worker_id"] == 5

    def test_single_process_stream_of_the_old_layout_validates(
            self, tmp_path):
        # the pre-merge single-process file: a header with no kind,
        # timestamps counted from the tracer epoch
        path = tmp_path / "old.jsonl"
        header = {"schema": TRACE_SCHEMA, "dropped": 0, "pid": 7,
                  "epoch": 1234.5}
        lines = [header, _event(name="a", ts=0.25, pid=7),
                 _event(name="b", ts=0.125, dur=0.0, pid=7)]
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        assert "trace jsonl (2 events)" in validate_file(path)

    def test_dropped_surfaces_everywhere(self, tmp_path, capsys):
        tracer = obs.Tracer(max_events=1)
        for _ in range(3):
            tracer.instant("e")
        assert tracer.dropped == 2
        merged = merge_traces([tracer.track_group()])
        path = merged.write_jsonl(tmp_path / "d.jsonl")
        assert read_jsonl_header(path)["dropped"] == 2
        # final trace.dropped instant appended to the stream
        assert read_jsonl(path)[-1]["name"] == "trace.dropped"
        # chrome export carries it in otherData
        assert merged.to_chrome_trace()["otherData"]["dropped"] == 2
        # the validator warns, and the CLI surfaces it on stderr
        assert "WARNING" in validate_file(path)
        from repro.obs.schema import main as schema_main
        assert schema_main([str(path)]) == 0
        assert "dropped events detected" in capsys.readouterr().err

    def test_drain_is_atomic_and_dropped_cumulative(self):
        tracer = obs.Tracer(max_events=2)
        for _ in range(3):
            tracer.instant("e")
        drained = tracer.drain()
        assert len(drained) == 2 and tracer.events == []
        assert tracer.dropped == 1
        for _ in range(3):
            tracer.instant("e")
        assert len(tracer.drain()) == 2
        assert tracer.dropped == 2  # cumulative across drains


# ----------------------------------------------------------------------
# spool files
# ----------------------------------------------------------------------

class TestSpool:
    def test_writer_reader_roundtrip(self, tmp_path):
        path = spool_path(tmp_path, 1, 4242)
        writer = SpoolWriter(path, pid=4242, worker_id=1,
                             trace_id="campaign-x")
        tracer = obs.Tracer(worker_id=1, task_id=0)
        with tracer.span("w.step", i=0):
            pass
        writer.write(tracer.track_group(drain=True))
        writer.close()
        assert tracer.events == []

        data = read_spool(path)
        assert data.worker_id == 1 and data.pid == 4242
        assert data.header["trace_id"] == "campaign-x"
        assert not data.truncated
        (event,) = data.events
        assert event["name"] == "w.step"
        # spool timestamps are absolute tracer-clock readings
        assert event["ts"] > 1.0

    def test_dropped_becomes_spool_instant(self, tmp_path):
        path = spool_path(tmp_path, 0, 1)
        writer = SpoolWriter(path, pid=1, worker_id=0)
        tracer = obs.Tracer(max_events=0, worker_id=0)
        for _ in range(7):
            tracer.instant("e")
        writer.write(tracer.track_group(drain=True))
        # no new drops: the next flush does not repeat the instant
        assert writer.write(tracer.track_group(drain=True)) == 0
        writer.close()
        data = read_spool(path)
        assert data.dropped == 7
        assert [e["name"] for e in data.events] == ["trace.dropped"]

    def test_torn_final_line_recovered(self, tmp_path):
        path = spool_path(tmp_path, 2, 99)
        writer = SpoolWriter(path, pid=99, worker_id=2)
        tracer = obs.Tracer(worker_id=2)
        tracer.instant("kept.one")
        tracer.instant("kept.two")
        writer.write(tracer.track_group(drain=True))
        writer.close()
        # simulate a SIGKILL mid-flush: half an event line at the end
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"name": "torn.ev')
        data = read_spool(path)
        assert data.truncated
        assert [e["name"] for e in data.events] == ["kept.one",
                                                    "kept.two"]

    def test_find_spools_and_paths_embed_pid(self, tmp_path):
        SpoolWriter(spool_path(tmp_path, 0, 10), pid=10,
                    worker_id=0).close()
        SpoolWriter(spool_path(tmp_path, 0, 11), pid=11,
                    worker_id=0).close()  # resume: same id, new process
        assert len(find_spools(tmp_path)) == 2


class TestSpoolingSession:
    def test_session_installs_flushes_restores(self, tmp_path):
        session = SpoolingSession(tmp_path, worker_id=0,
                                  trace_id="campaign-y")
        session.begin_task(3)
        assert obs.tracing_enabled() and obs.metrics_enabled()
        with obs.span("w.step"):
            pass
        obs.inc("bd_steps_total")
        session.flush()
        session.end_task("done")
        assert not obs.tracing_enabled() and not obs.metrics_enabled()
        session.close()

        data = read_spool(spool_path(tmp_path, 0, os.getpid()))
        names = [e["name"] for e in data.events]
        assert names[0] == "worker.task_begin"
        assert "w.step" in names and names[-1] == "worker.task_end"
        assert all(e["task_id"] == 3 for e in data.events
                   if e["name"] == "w.step")
        snapshot = json.loads(metrics_snapshot_path(
            tmp_path, 0, os.getpid()).read_text())
        (counter,) = [f for f in snapshot["metrics"]
                      if f["name"] == "bd_steps_total"]
        assert counter["series"][0]["value"] == 1.0

    def test_registry_accumulates_across_tasks(self, tmp_path):
        session = SpoolingSession(tmp_path, worker_id=1)
        for task_id in (0, 1):
            session.begin_task(task_id)
            obs.inc("bd_steps_total", 5)
            session.end_task("done")
        session.close()
        snapshot = json.loads(metrics_snapshot_path(
            tmp_path, 1, os.getpid()).read_text())
        (counter,) = [f for f in snapshot["metrics"]
                      if f["name"] == "bd_steps_total"]
        assert counter["series"][0]["value"] == 10.0


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------

class TestMerge:
    def _events(self):
        events = []
        for worker_id, pid in ((0, 100), (1, 200), (2, 300)):
            for i in range(4):
                events.append(_event(
                    name=f"w{worker_id}.step", ts=10.0 + i + worker_id,
                    dur=0.5, tid=worker_id + 1, pid=pid,
                    worker_id=worker_id, task_id=worker_id, i=i))
        events.append(_event(name="supervisor.task", ts=9.5, dur=8.0,
                             tid=7, pid=50, task=1))
        return events

    def test_merge_is_byte_identical_across_groupings(self, tmp_path):
        events = self._events()
        sup = [e for e in events if e["pid"] == 50]
        by_pid = {pid: [e for e in events if e["pid"] == pid]
                  for pid in (100, 200, 300)}

        # grouping A: supervisor + one group per worker, in id order
        groups_a = [TrackGroup("supervisor", 50, [dict(e) for e in sup])]
        groups_a += [TrackGroup(f"worker-{w}", pid,
                                [dict(e) for e in by_pid[pid]],
                                worker_id=w)
                     for w, pid in ((0, 100), (1, 200), (2, 300))]
        # grouping B: arrival order scrambled, events reversed
        groups_b = [TrackGroup(f"worker-{w}", pid,
                               [dict(e) for e in reversed(by_pid[pid])],
                               worker_id=w)
                    for w, pid in ((2, 300), (0, 100), (1, 200))]
        groups_b.append(
            TrackGroup("supervisor", 50, [dict(e) for e in sup]))

        merged_a = merge_traces(groups_a, trace_id="campaign-z")
        merged_b = merge_traces(groups_b, trace_id="campaign-z")
        path_a = merged_a.write_jsonl(tmp_path / "a.jsonl")
        path_b = merged_b.write_jsonl(tmp_path / "b.jsonl")
        assert path_a.read_bytes() == path_b.read_bytes()
        # chrome form identical too (metadata ordering is canonical)
        assert json.dumps(merged_a.to_chrome_trace()["traceEvents"]) == \
            json.dumps(merged_b.to_chrome_trace()["traceEvents"])

    def test_timeline_normalised_and_ordered(self):
        merged = merge_traces([
            TrackGroup("worker-0", 100,
                       [_event(ts=20.0, pid=100, worker_id=0)],
                       worker_id=0),
            TrackGroup("supervisor", 50, [_event(ts=19.0, pid=50)]),
        ])
        assert merged.events[0]["ts"] == 0.0  # earliest event is zero
        ts = [e["ts"] for e in merged.events]
        assert ts == sorted(ts)

    def test_chrome_tracks_named_and_supervisor_first(self):
        merged = merge_traces([
            TrackGroup(f"worker-{w}", 100 + w,
                       [_event(ts=1.0, pid=100 + w, worker_id=w)],
                       worker_id=w)
            for w in (2, 0, 1)
        ] + [TrackGroup("supervisor", 50, [_event(ts=0.5, pid=50)])])
        doc = merged.to_chrome_trace()
        validate_chrome_trace(doc)
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert names == ["supervisor", "worker-0", "worker-1",
                         "worker-2"]
        assert doc["otherData"]["kind"] == "merged"
        assert doc["otherData"]["processes"] == 4

    def test_merged_jsonl_validates(self, tmp_path):
        merged = merge_traces([
            TrackGroup("worker-0", 100,
                       [_event(ts=3.0, pid=100, worker_id=0)],
                       worker_id=0)])
        path = merged.write_jsonl(tmp_path / "m.jsonl")
        assert "trace jsonl" in validate_file(path)

    def test_spans_for_task_correlates_both_sides(self):
        merged = merge_traces([
            TrackGroup("supervisor", 50,
                       [_event(name="supervisor.task", ts=0.0, dur=5.0,
                               pid=50, task=1, worker=0)]),
            TrackGroup("worker-0", 100,
                       [_event(name="w.step", ts=1.0, pid=100,
                               worker_id=0, task_id=1),
                        _event(name="w.step", ts=2.0, pid=100,
                               worker_id=0, task_id=2)],
                       worker_id=0),
        ])
        correlated = spans_for_task(merged.events, 1)
        assert {e["name"] for e in correlated} == \
            {"supervisor.task", "w.step"}
        assert len(correlated) == 2

    def test_truncated_workers_in_header(self):
        merged = merge_traces([
            TrackGroup("worker-1", 100, [_event(pid=100, worker_id=1)],
                       worker_id=1, truncated=True)])
        assert merged.header()["truncated_workers"] == [1]


# ----------------------------------------------------------------------
# metric aggregation
# ----------------------------------------------------------------------

def _registry_doc(steps, lag=None):
    registry = obs.MetricsRegistry()
    registry.counter("bd_steps_total").inc(steps)
    registry.histogram("step_seconds",
                       buckets=(0.1, 1.0)).observe(steps / 10.0)
    if lag is not None:
        registry.gauge("heartbeat_lag").set(lag)
    return registry.to_json()


class TestAggregateMetrics:
    def test_counters_sum_across_workers(self):
        merged = aggregate_metrics([
            (_registry_doc(10), {"worker": "0"}),
            (_registry_doc(20), {"worker": "1"}),
        ])
        assert merged.counter("bd_steps_total").value == 30.0

    def test_gauges_get_per_worker_labels(self):
        merged = aggregate_metrics([
            (_registry_doc(1, lag=0.5), {"worker": "0"}),
            (_registry_doc(1, lag=0.9), {"worker": "1"}),
        ])
        assert merged.gauge("heartbeat_lag", worker="0").value == 0.5
        assert merged.gauge("heartbeat_lag", worker="1").value == 0.9

    def test_histograms_merge_bucket_by_bucket(self):
        merged = aggregate_metrics([
            (_registry_doc(1), {}), (_registry_doc(20), {}),
        ])
        hist = merged.histogram("step_seconds", buckets=(0.1, 1.0))
        assert hist.count == 2
        assert hist.counts == [1, 1]  # 0.1 and 2.0 observations
        assert hist.min == pytest.approx(0.1)
        assert hist.max == pytest.approx(2.0)

    def test_mismatched_bucket_ladders_raise(self):
        doc_a = _registry_doc(1)
        registry = obs.MetricsRegistry()
        registry.histogram("step_seconds",
                           buckets=(0.5, 5.0)).observe(1.0)
        with pytest.raises(ValueError, match="mismatched buckets"):
            aggregate_metrics([(doc_a, {}), (registry.to_json(), {})])

    def test_duplicate_label_key_prefers_extra(self):
        registry = obs.MetricsRegistry()
        registry.gauge("g", worker="9").set(1.0)
        merged = aggregate_metrics([(registry.to_json(),
                                     {"worker": "0"})])
        assert merged.gauge("g", worker="0").value == 1.0


# ----------------------------------------------------------------------
# histogram quantiles
# ----------------------------------------------------------------------

class TestHistogramQuantiles:
    def test_quantiles_interpolate_and_clamp(self):
        hist = obs.MetricsRegistry().histogram("h", buckets=(1, 2, 5, 10))
        for value in (0.5, 1.5, 3.0, 4.0, 8.0, 20.0):
            hist.observe(value)
        assert hist.quantile(0.0) == pytest.approx(0.5)   # clamped to min
        assert hist.quantile(1.0) == pytest.approx(20.0)  # clamped to max
        p50 = hist.quantile(0.5)
        assert 2.0 <= p50 <= 5.0
        assert hist.quantile(0.9) >= p50

    def test_empty_histogram_returns_none(self):
        hist = obs.MetricsRegistry().histogram("h")
        assert hist.quantile(0.5) is None

    def test_invalid_quantile_raises(self):
        hist = obs.MetricsRegistry().histogram("h")
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)

    def test_json_export_carries_quantiles_prom_does_not(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 3.0):
            hist.observe(value)
        (family,) = registry.to_json()["metrics"]
        series = family["series"][0]
        assert {"p50", "p90", "p99"} <= set(series)
        assert series["p50"] <= series["p90"] <= series["p99"]
        # the text exposition keeps the standard bucket form only
        text = registry.to_prometheus_text()
        assert "p50" not in text and "h_bucket" in text
