"""Tests for repro.obs: tracer, metrics, exports, pipeline wiring."""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.profiling import format_table
from repro.obs.schema import (
    SchemaError,
    validate_chrome_trace,
    validate_file,
    validate_metrics_json,
)
from repro.obs.trace import NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_obs_globals():
    """Every test starts and ends with observability disabled."""
    previous_tracer = obs.set_tracer(None)
    previous_registry = obs.set_metrics(None)
    yield
    obs.set_tracer(previous_tracer)
    obs.set_metrics(previous_registry)


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_records_event(self):
        tracer = obs.Tracer()
        with tracer.span("pme.fft", K=32):
            pass
        (event,) = tracer.events
        assert event.name == "pme.fft"
        assert event.phase == "X"
        assert event.dur >= 0
        assert event.args == {"K": 32}
        assert event.depth == 0

    def test_nesting_depths(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # inner exits (and records) first
        inner, outer = tracer.events
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert outer.dur >= inner.dur
        assert outer.ts <= inner.ts

    def test_instant_event(self):
        tracer = obs.Tracer()
        tracer.instant("recovery.retry", kind="nan")
        (event,) = tracer.events
        assert event.phase == "i"
        assert event.dur == 0.0
        assert event.args == {"kind": "nan"}

    def test_totals_and_counts_with_prefix(self):
        tracer = obs.Tracer()
        for _ in range(3):
            with tracer.span("pme.spread"):
                pass
        with tracer.span("bd.mobility"):
            pass
        tracer.instant("recovery.retry")
        assert tracer.counts("pme.") == {"pme.spread": 3}
        assert set(tracer.totals()) == {"pme.spread", "bd.mobility"}
        assert tracer.totals("pme.")["pme.spread"] >= 0

    def test_max_events_drops_not_grows(self):
        tracer = obs.Tracer(max_events=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_thread_safety(self):
        tracer = obs.Tracer()
        n_threads, spans_each = 8, 25
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for i in range(spans_each):
                with tracer.span("outer", i=i):
                    with tracer.span("inner"):
                        pass

        threads = [threading.Thread(target=work)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.events) == n_threads * spans_each * 2
        assert tracer.counts() == {"outer": n_threads * spans_each,
                                   "inner": n_threads * spans_each}
        # depth is tracked per thread: every inner is depth 1
        for event in tracer.events:
            assert event.depth == (1 if event.name == "inner" else 0)
        assert len({e.tid for e in tracer.events}) == n_threads


# ----------------------------------------------------------------------
# disabled fast path
# ----------------------------------------------------------------------

class TestDisabled:
    def test_span_returns_shared_null_singleton(self):
        assert not obs.tracing_enabled()
        assert obs.span("pme.fft", K=32) is NULL_SPAN
        assert obs.span("other") is NULL_SPAN

    def test_facades_are_noops(self):
        obs.instant("recovery.retry")
        obs.inc("c_total")
        obs.observe("h", 3)
        obs.set_gauge("g", 1.0)
        obs.record_solver("lanczos", 5, True, 1e-3, 5)
        assert obs.get_tracer() is None
        assert obs.get_metrics() is None

    def test_enable_disable_roundtrip(self):
        tracer, registry = obs.enable()
        assert obs.get_tracer() is tracer
        assert obs.get_metrics() is registry
        with obs.span("x"):
            pass
        obs.inc("n_total")
        assert len(tracer.events) == 1
        assert registry.counter("n_total").value == 1
        obs.disable()
        assert not obs.tracing_enabled()
        assert not obs.metrics_enabled()


# ----------------------------------------------------------------------
# the phase timer and the table format
# ----------------------------------------------------------------------

class TestPhaseTimer:
    def test_phases_accumulate_independently(self):
        pt = obs.PhaseTimer()
        with pt.phase("a"):
            time.sleep(0.005)
        with pt.phase("b"):
            time.sleep(0.001)
        with pt.phase("a"):
            time.sleep(0.005)
        assert pt.elapsed("a") > pt.elapsed("b")
        assert pt.total == pytest.approx(pt.elapsed("a") + pt.elapsed("b"))

    def test_unknown_phase_zero(self):
        assert obs.PhaseTimer().elapsed("nope") == 0.0

    def test_breakdown_and_reset(self):
        pt = obs.PhaseTimer()
        with pt.phase("x"):
            pass
        assert "x" in pt.breakdown()
        pt.reset()
        assert pt.total == 0.0
        assert pt.breakdown() == {"x": 0.0}

    def test_reentrant_phase(self):
        # recursive entry into the same phase must not double-count:
        # only the outermost occurrence accumulates and records a span
        tracer, _ = obs.enable()
        pt = obs.PhaseTimer(prefix="t")
        with pt.phase("x"):
            with pt.phase("x"):
                time.sleep(0.002)
        assert tracer.counts("t.") == {"t.x": 1}
        assert 0.002 <= pt.elapsed("x") <= tracer.totals("t.")["t.x"]

    def test_distinct_phases_nest(self):
        pt = obs.PhaseTimer()
        with pt.phase("outer"):
            with pt.phase("inner"):
                time.sleep(0.001)
        assert pt.elapsed("outer") >= pt.elapsed("inner") > 0.0


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table("T", ["aa", "b"], [[1, 2.5], [30, 0.125]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "aa" in lines[2]
        # all rows have the same rendered width
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_format_table_empty_rows(self):
        out = format_table("empty", ["x"], [])
        assert "x" in out

    def test_float_formatting(self):
        out = format_table("t", ["v"], [[0.123456789]])
        assert "0.1235" in out

    def test_numpy_scalars(self):
        # np.float64 subclasses float, so it takes the float format path
        out = format_table("t", ["v"], [[np.float64(1.5)]])
        assert "1.5" in out


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------

def _merged(tracer):
    """A process's own trace: the one-track merge every command writes."""
    return obs.merge_traces([tracer.track_group()])


class TestExports:
    def _populated(self):
        tracer = obs.Tracer()
        with tracer.span("pme.spread", n=10):
            with tracer.span("pme.fft"):
                pass
        tracer.instant("recovery.retry", kind="nan")
        return tracer

    def test_chrome_trace_schema(self):
        doc = _merged(self._populated()).to_chrome_trace()
        validate_chrome_trace(doc)
        assert doc["displayTimeUnit"] == "ms"
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        # ordered by start time, counted from the earliest event
        assert [e["name"] for e in events] == ["pme.spread", "pme.fft",
                                               "recovery.retry"]
        assert events[0]["ts"] == 0.0
        assert events[0]["args"] == {"n": 10, "depth": 0}
        by_name = {e["name"]: e for e in events}
        assert by_name["pme.fft"]["args"] == {"depth": 1}
        # microsecond timestamps, category = dotted root
        assert by_name["pme.spread"]["cat"] == "pme"
        assert by_name["pme.spread"]["dur"] >= by_name["pme.fft"]["dur"]
        assert by_name["recovery.retry"]["ph"] == "i"
        assert by_name["recovery.retry"]["s"] == "t"

    def test_zero_event_exports_are_valid(self, tmp_path):
        merged = _merged(obs.Tracer())
        path = merged.write_chrome_trace(tmp_path / "empty.json")
        assert "chrome trace" in validate_file(path)
        doc = json.loads(path.read_text())
        assert [e for e in doc["traceEvents"] if e["ph"] != "M"] == []

    def test_schema_rejects_malformed_event(self):
        def doc(**fields):
            event = {"name": "x", "ph": "X", "ts": 0.0, "dur": 1.0,
                     "pid": 1, "tid": 1, "args": {"depth": 0}}
            event.update(fields)
            return {"traceEvents": [event],
                    "otherData": _merged(obs.Tracer()).header()}

        validate_chrome_trace(doc())
        malformed = [
            {"traceEvents": [{"name": "x", "ph": "X"}],
             "otherData": doc()["otherData"]},    # missing keys
            doc(ph="i", dur=0.5),                  # instant with a dur
            doc(ph="B"),                           # unknown phase
            doc(name=""),                          # empty name
            doc(name=3),
            doc(ts=-1.0),                          # negative ts / dur
            doc(ts=True),
            doc(dur=-0.5),
            doc(dur="1"),
            doc(pid=1.5),                          # non-integer ids
            doc(tid="1"),
            doc(args=[]),                          # args not an object
            doc(args={}),                          # no depth
            doc(args={"depth": -1}),
            doc(args={"depth": 0.5}),
            doc(args={"depth": 0, "worker_id": "0"}),
            doc(args={"depth": 0, "task_id": True}),
        ]
        for bad in malformed:
            with pytest.raises(SchemaError):
                validate_chrome_trace(bad)

    def test_schema_rejects_bad_header(self):
        good = _merged(obs.Tracer()).to_chrome_trace()
        validate_chrome_trace(good)
        bad_headers = [
            None,                                  # no otherData
            {"schema": "other/1", "kind": "merged", "dropped": 0},
            {"schema": obs.TRACE_SCHEMA, "dropped": 0},   # no kind
            {"schema": obs.TRACE_SCHEMA, "kind": "trace", "dropped": 0},
            {"schema": obs.TRACE_SCHEMA, "kind": "merged", "dropped": -1},
            {"schema": obs.TRACE_SCHEMA, "kind": "merged"},
        ]
        for header in bad_headers:
            doc = dict(good)
            if header is None:
                del doc["otherData"]
            else:
                doc["otherData"] = header
            with pytest.raises(SchemaError):
                validate_chrome_trace(doc)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotone(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("bd_steps_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_kind_conflict_raises(self):
        registry = obs.MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_labels_create_distinct_series(self):
        registry = obs.MetricsRegistry()
        registry.counter("solves_total", method="lanczos").inc()
        registry.counter("solves_total", method="chebyshev").inc(5)
        assert registry.counter("solves_total",
                                method="lanczos").value == 1
        assert registry.counter("solves_total",
                                method="chebyshev").value == 5

    def test_histogram_stats(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("iters", buckets=(1, 10, 100))
        for v in (3, 7, 40):
            hist.observe(v)
        assert hist.count == 3
        assert hist.mean == pytest.approx(50 / 3)
        assert hist.min == 3 and hist.max == 40
        assert hist.counts == [0, 2, 3]

    def test_json_export_validates(self):
        registry = obs.MetricsRegistry()
        registry.counter("a_total").inc()
        registry.histogram("h").observe(2)
        doc = registry.to_json()
        validate_metrics_json(doc)
        assert json.loads(json.dumps(doc)) == doc

    def test_record_solver_populates_families(self):
        registry = obs.MetricsRegistry()
        obs.set_metrics(registry)
        obs.record_solver("lanczos", iterations=7, converged=True,
                          rel_change=1e-3, n_matvecs=9)
        assert registry.counter("krylov_solves_total", method="lanczos",
                                converged="true").value == 1
        assert registry.counter("krylov_matvecs_total",
                                method="lanczos").value == 9
        assert registry.histogram("krylov_iterations",
                                  method="lanczos").count == 1


# ----------------------------------------------------------------------
# pipeline wiring: spans + metrics from a real simulation
# ----------------------------------------------------------------------

def _run_sim(n_steps=3, with_obs=False):
    from repro.core.simulation import Simulation
    from repro.systems.suspension import make_suspension

    susp = make_suspension(24, 0.1, seed=3)
    sim = Simulation(susp, algorithm="matrix-free", dt=1e-3,
                     lambda_rpy=2, seed=4, e_k=1e-2, target_ep=1e-2)
    if with_obs:
        tracer, registry = obs.enable()
    else:
        tracer = registry = None
    try:
        traj, stats = sim.run(n_steps=n_steps, record_interval=1)
    finally:
        if with_obs:
            obs.disable()
    return traj, stats, tracer, registry


class TestPipelineWiring:
    def test_traced_run_is_bit_identical_to_untraced(self):
        traj_plain, _, _, _ = _run_sim()
        traj_traced, _, _, _ = _run_sim(with_obs=True)
        np.testing.assert_array_equal(traj_plain.positions,
                                      traj_traced.positions)

    def test_span_taxonomy_and_timer_reconciliation(self):
        _, stats, tracer, registry = _run_sim(n_steps=3, with_obs=True)
        counts = tracer.counts()
        assert counts["sim.run"] == 1
        # 3 steps with lambda_rpy=2 -> 2 mobility blocks; "brownian"
        # times each block's real half and each step's wave-space draw
        assert counts["bd.block"] == 2
        expected = {"mobility": 2, "brownian": 2 + 3,
                    "forces": 3, "propagate": 3}
        for phase, n_expected in expected.items():
            name = f"bd.{phase}"
            assert counts[name] == n_expected
            # the span encloses the timer's start/stop pair
            span_total = tracer.totals()[name]
            timer_total = stats.timers.elapsed(phase)
            assert span_total >= timer_total
            assert span_total <= timer_total + 0.25
        assert counts["pme.fft"] >= 1
        assert any(name.startswith("krylov.") for name in counts)
        # solver + step metrics landed in the registry
        assert registry.counter("bd_steps_total").value == 3
        assert registry.counter("pme_applications_total").value > 0
        # one Krylov solve per mobility block
        assert registry.histogram("bd_krylov_iterations").count == 2
        validate_metrics_json(registry.to_json())

    def test_pme_phase_spans_reconcile_with_phase_breakdown(self):
        # the suite reads these eight names off phase_breakdown(); the
        # trace must carry the same phases as pme.<phase> spans
        from repro import Box, PMEOperator, PMEParams

        rng = np.random.default_rng(0)
        box = Box(10.0)
        positions = rng.uniform(0.0, 10.0, (40, 3))
        tracer, _ = obs.enable()
        try:
            op = PMEOperator(positions, box,
                             PMEParams(xi=1.0, r_max=4.0, K=16, p=4))
            op.apply_block(rng.standard_normal((120, 3)))
        finally:
            obs.disable()
        totals = tracer.totals("pme.")
        breakdown = op.phase_breakdown()
        for phase in ("spread", "fft", "influence", "ifft", "interpolate",
                      "real", "construct_p", "construct_real"):
            span_total = totals[f"pme.{phase}"]
            assert span_total >= breakdown[phase]
            assert span_total <= breakdown[phase] + 0.25

    def test_profile_counts_one_application_per_drift_apply(self):
        # every mesh pass of a run with forces is a step's drift apply
        # (its wave-space noise rides along), so the applications the
        # profile prices are the steps, and each phase ran once per step
        from repro.obs.profiling import run_profile

        steps = 5
        obs.enable()
        try:
            report = run_profile(n=300, steps=steps, lambda_rpy=16)
        finally:
            obs.disable()
        assert report.applications == steps
        for row in report.rows:
            assert row.calls == steps, row

    def test_recovery_events_traced(self):
        from repro.core.simulation import Simulation
        from repro.resilience.faults import FaultPlan, install_faults
        from repro.systems.suspension import make_suspension

        susp = make_suspension(24, 0.1, seed=3)
        sim = Simulation(susp, algorithm="matrix-free", dt=1e-3,
                         lambda_rpy=2, seed=4, e_k=1e-2, target_ep=1e-2)
        # deterministic fault on the first Brownian solve (call index
        # 0), recovered by retry
        schedule = FaultPlan(brownian_calls=(0,))
        install_faults(sim.integrator, schedule)
        tracer, registry = obs.enable()
        try:
            sim.run(n_steps=2, record_interval=1)
        finally:
            obs.disable()
        instants = [e for e in tracer.events if e.phase == "i"]
        assert any(e.name.startswith("recovery.") for e in instants)
        families = registry.to_json()["metrics"]
        assert any(f["name"] == "recovery_events_total"
                   for f in families)


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------

class TestCliRoundTrip:
    def test_simulate_trace_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "run.json"
        metrics = tmp_path / "run.metrics.json"
        rc = main(["simulate", "-n", "24", "--phi", "0.1", "--steps", "3",
                   "--e-p", "1e-2", "--record-interval", "1",
                   "-o", str(tmp_path / "t.npz"),
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        # the run left the globals clean
        assert not obs.tracing_enabled()

        doc = json.loads(trace.read_text())
        validate_chrome_trace(doc)
        validate_metrics_json(json.loads(metrics.read_text()))
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]

        # reconcile the replayed trace with itself: per-step phases sum
        # to (at most) the enclosing sim.run span
        durs: dict[str, float] = {}
        for e in events:
            if e["ph"] == "X":
                durs[e["name"]] = durs.get(e["name"], 0.0) + e["dur"]
        assert durs["bd.block"] <= durs["sim.run"]
        phase_sum = sum(durs.get(f"bd.{p}", 0.0) for p in
                        ("mobility", "brownian", "forces", "propagate"))
        assert phase_sum <= durs["bd.block"]
        # 3 steps fit in one lambda_rpy=16 block at the CLI defaults
        n_blocks = sum(1 for e in events if e["name"] == "bd.block")
        assert n_blocks == 1
        n_steps = sum(1 for e in events if e["name"] == "bd.propagate")
        assert n_steps == 3

    @pytest.mark.parametrize("command", ["simulate", "profile"])
    def test_every_export_validates(self, tmp_path, capsys, command):
        from repro.cli import main
        from repro.obs.schema import main as schema_main

        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        argv = [command, "-n", "24", "--phi", "0.1", "--steps", "2",
                "--e-p", "1e-2", "--trace", str(trace),
                "--metrics", str(metrics)]
        if command == "simulate":
            argv += ["-o", str(tmp_path / "t.npz")]
        assert main(argv) == 0
        assert schema_main([str(trace), str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace" in out and "metrics json" in out
        # a process's own trace is a one-track merge, named after the
        # command that recorded it
        doc = json.loads(trace.read_text())
        header = doc["otherData"]
        assert (header["kind"], header["processes"]) == ("merged", 1)
        assert [e["args"]["name"] for e in doc["traceEvents"]
                if e["name"] == "process_name"] == [command]


class TestHistogramQuantileEdges:
    def test_empty_histogram_returns_none(self):
        hist = obs.MetricsRegistry().histogram("h", buckets=(1, 10))
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.0) is None

    def test_quantile_out_of_range_raises(self):
        hist = obs.MetricsRegistry().histogram("h", buckets=(1, 10))
        hist.observe(2)
        with pytest.raises(ConfigurationError):
            hist.quantile(-0.1)
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)

    def test_single_observation_clamps_to_the_value(self):
        hist = obs.MetricsRegistry().histogram("h", buckets=(1, 10, 100))
        hist.observe(7.0)
        # every quantile of one observation is that observation,
        # regardless of which bucket it interpolates inside
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 7.0

    def test_all_mass_in_one_bucket_stays_within_min_max(self):
        hist = obs.MetricsRegistry().histogram("h", buckets=(1, 10, 100))
        for v in (3.0, 4.0, 5.0):
            hist.observe(v)
        for q in (0.1, 0.5, 0.9):
            assert 3.0 <= hist.quantile(q) <= 5.0

    def test_mass_beyond_last_finite_bucket_returns_max(self):
        hist = obs.MetricsRegistry().histogram("h", buckets=(1, 10))
        for v in (50.0, 70.0, 90.0):
            hist.observe(v)          # all land in the +Inf bucket
        assert hist.quantile(0.5) == 90.0
        assert hist.quantile(0.99) == 90.0
