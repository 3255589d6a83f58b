"""Runner of the benchmark suite.

One workload, one fresh process (the form the driver calls)::

    python3 benchmarks/suite/run.py --workload bd_recip_n1000 \\
        --seed 0 --seconds 12 --trace 0

prints every metric by name and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs all five workloads, an
untraced and a traced pass each, one process per run, and exits
non-zero if any verification fails.

Metric names and units are read from ``BENCHMARK.json``; see
``README.md`` next to this file for the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

_T0 = time.perf_counter()
SUITE = Path(__file__).resolve().parent
REPO = SUITE.parents[1]

#: The set-up sequence runs at least SETUP_REPEATS times; a cheap one
#: goes on until SETUP_SECONDS are spent or SETUP_REPEATS_MAX is reached.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
SETUP_REPEATS_MAX = 25

#: glibc allocator policy: every array from the heap (no mmap), heap
#: memory never returned, heap grown in large steps.  With the default
#: policy a large temporary is unmapped when freed and its pages are
#: faulted in again by the next one; on this VM that costs 0-500 ms of
#: kernel time per 0.5-s mobility rebuild, at random, which the probe
#: cannot see.  The price: first-touch page-fault cost is *not* in the
#: timings (README, "Pinned allocator").
MALLOC_PINS = {"MALLOC_MMAP_MAX_": "0",
               "MALLOC_TRIM_THRESHOLD_": "4000000000",
               "MALLOC_TOP_PAD_": "268435456"}


def _pin_allocator() -> None:
    """glibc reads its tunables at start-up: re-execute once with them."""
    if any(os.environ.get(k) != v for k, v in MALLOC_PINS.items()):
        os.environ.update(MALLOC_PINS)
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _pin_environment(out: Path) -> None:
    """One BLAS/OpenMP thread, own kernel cache, default repro knobs.

    Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_CHECKS", "REPRO_BACKEND"):
        os.environ.pop(var, None)
    os.environ["REPRO_CKERNEL_CACHE"] = str(out / "ckernels")
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {REPO / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(REPO / "src"), str(SUITE)]


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    """Measure one workload in this process; returns the exit code."""
    out = Path(args.out)
    _pin_environment(out)
    out.mkdir(parents=True, exist_ok=True)

    import numpy
    import scipy
    import repro  # noqa: F401 - timed as part of the cold start
    from repro.sparse.kernels import kernel_available
    ckernel = kernel_available()            # compiles on the first run
    cold_s = time.perf_counter() - _T0

    import harness
    children_kb = harness.children_rss_kb()
    import layers
    import workloads
    from tracing import Tracer

    trace = bool(args.trace)
    scratch = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=out)
    probe = harness.Probe()
    tracer = Tracer()
    if trace:
        layers.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    gc.disable()                            # collected between units only
    wall = {"cold": cold_s}
    try:
        mark = time.perf_counter()
        workload.prepare()
        wall["prepare"] = time.perf_counter() - mark

        setups = []
        boundary = probe.sample()
        deadline = time.perf_counter() + SETUP_SECONDS
        while len(setups) < SETUP_REPEATS or (
                len(setups) < SETUP_REPEATS_MAX
                and time.perf_counter() < deadline):
            i = len(setups)
            tracer.set_scope("setup", i, trace)
            sample, boundary = harness.timed(probe, boundary,
                                             workload.setup_once, trace, i)
            tracer.set_scope("setup", i, False)
            setups.append(sample)

        wall["setups"] = time.perf_counter() - mark - wall["prepare"]
        t0 = time.perf_counter()
        # a traced run alternates traced and untraced units, so that
        # trace.overhead_share compares like with like
        samples = workload.window(
            probe, args.seconds, lambda i: trace and i % 2 == 0,
            lambda on, i: tracer.set_scope("unit", i, on))
        window_s = time.perf_counter() - t0
        rss_mb = harness.peak_rss_mb(children_kb)

        mark = time.perf_counter()
        failures = workload.verify(trace, probe)
        wall.update(window=window_s, verify=time.perf_counter() - mark)
        failures += [f"{sum(s.failed for s in group)} failed {what}"
                     for what, group in (("set-ups", setups),
                                         ("units", samples))
                     if any(s.failed for s in group)]
    finally:
        workload.close()
        tracer.unpatch()
        gc.enable()

    good = [s for s in samples if not s.failed]
    plain = [s for s in good if not s.traced]
    values = {m["name"]: 0.0 for m in spec["per_layer"]} if trace else {}
    values.update({
        "setup_s": harness.median([s.norm_ms for s in setups]) / 1e3,
        "unit_p50_ms": harness.median([s.norm_ms for s in plain]),
        "peak_rss_mb": rss_mb,
        "raw.unit_p50_ms": harness.median([s.raw_ms for s in plain]),
        "raw.setup_s": harness.median([s.raw_ms for s in setups]) / 1e3,
    })
    # samples behind each number: untraced units, set-ups, else traced units
    counts = {"unit_p50_ms": len(plain), "raw.unit_p50_ms": len(plain),
              "setup_s": len(setups), "raw.setup_s": len(setups),
              "peak_rss_mb": 1}
    if trace:
        traced = [s for s in good if s.traced]
        # scope -> (normalisation factor, units it holds); a serve slice
        # holds many requests, every other scope one unit
        scopes = {}
        for kind, group in (("setup", setups), ("unit", traced)):
            held = Counter(s.scope for s in group)
            scopes[kind] = {s.scope: (harness.PROBE_REF_MS / s.flank_ms,
                                      held[s.scope]) for s in group}
        spans = layers.span_metrics(tracer, scopes, workloads.COUNT_UNITS)
        values.update(spans)
        values.update(workload.layer_facts(samples, spans))
        history = probe.history
        values.update({
            "sparse.ckernel": float(ckernel),
            "setup.cold_s": cold_s,
            "probe.p50_ms": harness.median(history),
            "probe.cv": float(numpy.std(history) / numpy.mean(history)),
            "load.units": len(samples),
            "load.units_per_s": len(samples) / window_s,
            "load.fail_share": 1.0 - len(good) / len(samples),
            "load.minflt_per_unit": harness.median([s.minflt for s in good]),
            "trace.overhead_share": harness.median(
                [s.norm_ms for s in traced]) / values["unit_p50_ms"] - 1.0,
            # not in BENCHMARK.json (result file only): the self times of
            # all layers against the time of a traced unit
            "trace.coverage_share": sum(
                values[f"self.{layer}_ms"] for layer in layers.LAYERS)
                / harness.median([s.norm_ms for s in traced]),
        })
        tracer.chrome_trace(str(out / f"trace_{args.workload}.json"))

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    correct = not failures
    attempted = len(samples)
    failed = attempted if failures else 0

    print(f"# {args.workload}  seed={args.seed}  trace={int(trace)}  "
          f"units={attempted}  window={window_s:.1f}s")
    for m in listed:
        n = counts.get(m["name"], len(good) - len(plain))
        print(f"{m['name']:32s} {values[m['name']]:14.6g} "
              f"{m['unit']:8s} n={n}")
    for failure in failures:
        print(f"FAILED: {failure}")

    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in listed}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "trace": int(trace), "seconds": args.seconds, "wall_s": wall,
              "digest": workload.facts.get("digest"),
              "values": {k: float(v) for k, v in values.items()},
              "samples": {what: [[s.raw_ms, s.flank_ms, int(s.traced)]
                                 for s in group]
                          for what, group in (("setup", setups),
                                              ("unit", samples))},
              "environment": {
                  "nproc": workloads.NPROC, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "kernel_available": ckernel,
                  "probe_ref_ms": harness.PROBE_REF_MS}}
    with open(out / f"result_{args.workload}_t{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if correct:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def spawn(workload: str, seed: int, seconds: float, trace: int, out: str,
          quiet: bool = False) -> dict | None:
    """One workload in a fresh process: its result record, None if it failed."""
    code = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", out],
        stdout=subprocess.DEVNULL if quiet else None).returncode
    if code:
        return None
    with open(Path(out) / f"result_{workload}_t{trace}.json") as fh:
        return json.load(fh)


def run_suite(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, untraced then traced, one process per run."""
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        records = [spawn(workload, args.seed, args.seconds, trace, args.out)
                   for trace in (0, 1)]
        if None in records:
            status = 1
        else:
            timed, traced = records
            if timed["digest"] != traced["digest"]:
                print(f"FAILED: {workload}: digests of the timed and the "
                      "traced pass differ")
                status = 1
            between = (traced["values"]["unit_p50_ms"]
                       / timed["values"]["unit_p50_ms"] - 1.0)
            print(f"# {workload}: unit_p50_ms of the traced pass vs the "
                  f"timed pass {between:+.3f}")
    print("suite", "FAILED" if status else "ok")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_build/suite",
                        help="output directory (results, traces, scratch)")
    args = parser.parse_args()
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_suite(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    _pin_allocator()
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
