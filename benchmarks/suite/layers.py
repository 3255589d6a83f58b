"""Which public callables carry a span, and how spans become metrics.

``install`` wraps the layer boundaries of ``repro`` (see
:mod:`tracing`); ``span_metrics`` turns the recorded spans of one
traced run into the per-layer numbers of ``BENCHMARK.json``.  Timings
are probe-normalised milliseconds per unit (or per set-up sequence for
work that only happens there); exact counts are taken from the first
``COUNT_UNITS`` traced units so they repeat bit-for-bit for a seed.
"""

from __future__ import annotations

from typing import Callable

import repro.serve.protocol as protocol
from repro import PMEOperator, RepulsiveHarmonic, Simulation
from repro.core.brownian import KrylovBrownianGenerator
from repro.exec import ExecutionContext
from repro.krylov.block_lanczos import block_lanczos_sqrt
from repro.neighbor.pairs import find_pairs
from repro.parallel.engine import ColoredPMEEngine
from repro.pme.influence import InfluenceFunction
from repro.pme.realspace import RealSpaceOperator
from repro.pme.spread import InterpolationMatrix
from repro.pme.tuning import tune_parameters
from repro.runtime import Supervisor
from repro.serve import ServeClient
from repro.serve.batching import build_operator
from repro.sparse.bcsr import BlockCSR
from repro.systems.suspension import make_suspension

import harness
from tracing import Span, Tracer, per_scope, self_times

LAYERS = ("core", "krylov", "pme", "neighbor", "sparse", "parallel", "exec",
          "systems", "runtime", "serve")

#: PME phases of ``PMEOperator.phase_breakdown()`` -> metric name.
PHASES = {"spread": "pme.spread_ms", "fft": "pme.fft_ms",
          "influence": "pme.influence_ms", "ifft": "pme.ifft_ms",
          "interpolate": "pme.interpolate_ms", "real": "pme.real_ms",
          "construct_p": "pme.build_p_ms",
          "construct_real": "pme.build_real_ms"}


def _phases(op, *args, **kwargs) -> dict[str, float]:
    # before __init__ has run there are no timers yet
    return op.phase_breakdown() if hasattr(op, "timers") else {}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; call after ``workloads`` is imported."""
    method = tracer.patch_method
    method(Simulation, "run", "core")
    method(RepulsiveHarmonic, "forces", "core")
    method(KrylovBrownianGenerator, "generate", "core",
           info=lambda d, gen, op, z: {"columns": z.shape[1]})
    tracer.patch_function(block_lanczos_sqrt, "krylov",
                          info=lambda out, *a, **k: {"iters": out[1].iterations})
    for attr in ("__init__", "apply", "apply_block"):
        method(PMEOperator, attr, "pme", delta=_phases)
    for attr in ("apply_real", "apply_reciprocal"):
        method(PMEOperator, attr, "pme")
    for attr in ("__init__", "spread", "interpolate", "spread_batch",
                 "interpolate_batch"):
        method(InterpolationMatrix, attr, "pme")
    for attr in ("__init__", "apply", "apply_batch"):
        method(InfluenceFunction, attr, "pme")
    for attr in ("__init__", "apply", "apply_block"):
        method(RealSpaceOperator, attr, "pme")
    tracer.patch_function(tune_parameters, "pme")
    tracer.patch_function(find_pairs, "neighbor",
                          info=lambda out, *a, **k: {"pairs": out[0].size})
    for attr in ("from_pairs", "matvec", "matmat", "to_scipy"):
        method(BlockCSR, attr, "sparse")
    for attr in ("__init__", "spread_batch", "interpolate_batch"):
        method(ColoredPMEEngine, attr, "parallel")
    method(ExecutionContext, "__init__", "exec")
    method(ExecutionContext, "run_tasks", "exec",
           info=lambda out, ctx, tasks, *a, **k: {"tasks": len(tasks)})
    tracer.patch_function(make_suspension, "systems")
    method(Supervisor, "run", "runtime")
    for fn in (protocol.encode_array, protocol.decode_array,
               protocol.encode_message, protocol.decode_line):
        tracer.patch_function(fn, "serve")
    tracer.patch_function(build_operator, "serve")
    method(ServeClient, "request", "serve")


class ScopedSpans:
    """Spans of one run, summed per unit / set-up sequence.

    ``scopes[kind][i] = (norm, units)``: the probe normalisation factor
    of scope ``i`` and the units of work it holds (1, or the requests
    of a serve slice).  Only the scopes listed there are reported.
    """

    def __init__(self, spans: list[Span],
                 scopes: dict[str, dict[int, tuple[float, int]]]):
        self.scopes = scopes
        own = self_times(spans)
        columns = {"incl": [s.duration for s in spans], "self": own,
                   "calls": [1.0] * len(spans)}
        for key in {k for s in spans for k in s.info}:
            columns["info." + key] = [float(s.info.get(key, 0.0))
                                      for s in spans]
        self._sums = {kind: {what: per_scope(spans, values, kind)
                             for what, values in columns.items()}
                      for kind in scopes}

    def _rows(self, what: str, kind: str, match: Callable[[str], bool]
              ) -> dict[int, float]:
        """Per-scope totals over every span name accepted by ``match``."""
        rows = {i: 0.0 for i in self.scopes[kind]}
        for name, by_scope in self._sums[kind].get(what, {}).items():
            if match(name):
                for i, value in by_scope.items():
                    if i in rows:
                        rows[i] += value
        return rows

    def ms(self, what: str, match: Callable[[str], bool],
           kinds: tuple[str, ...] = ("unit", "setup")) -> float:
        """Median normalised ms per unit; per set-up when units have none."""
        for kind in kinds:
            values = []
            for i, seconds in self._rows(what, kind, match).items():
                norm, units = self.scopes[kind][i]
                values.append(seconds * 1e3 * norm / units)
            if any(values):
                return harness.median(values)
        return 0.0

    def count(self, what: str, match: Callable[[str], bool],
              first: int) -> float:
        """Exact mean per unit over the first ``first`` traced scopes."""
        rows = self._rows(what, "unit", match)
        chosen = sorted(rows)[:first]
        units = sum(self.scopes["unit"][i][1] for i in chosen)
        return sum(rows[i] for i in chosen) / max(1, units)


def span_metrics(tracer: Tracer,
                 scopes: dict[str, dict[int, tuple[float, int]]],
                 count_units: int) -> dict[str, float]:
    """Every per-layer metric that comes from spans alone."""
    scoped = ScopedSpans(tracer.spans, scopes)

    def named(*suffixes: str) -> Callable[[str], bool]:
        return lambda name: name.endswith(suffixes)

    applies = named("pme.PMEOperator.apply", "pme.PMEOperator.apply_block")
    codec = named("serve.encode_array", "serve.decode_array",
                  "serve.encode_message", "serve.decode_line")
    out = {
        "krylov.block_lanczos_ms": scoped.ms(
            "self", named("krylov.block_lanczos_sqrt")),
        "krylov.iters_per_block": scoped.count(
            "info.iters", named("block_lanczos_sqrt"), count_units) / max(
            1.0, scoped.count("calls", named("block_lanczos_sqrt"),
                              count_units)),
        "krylov.columns_per_block": scoped.count(
            "info.columns", named("generate"), count_units) / max(
            1.0, scoped.count("calls", named("generate"), count_units)),
        "pme.tune_ms": scoped.ms("incl", named("pme.tune_parameters")),
        "pme.build_ms": scoped.ms("incl", named("PMEOperator.__init__")),
        "pme.apply_block_ms": scoped.ms(
            "incl", named("PMEOperator.apply_block")),
        "pme.apply_calls": scoped.count("calls", applies, count_units),
        "neighbor.find_pairs_ms": scoped.ms("incl", named("find_pairs")),
        "neighbor.pairs": scoped.count(
            "info.pairs", named("find_pairs"), count_units),
        "sparse.from_pairs_ms": scoped.ms(
            "incl", named("BlockCSR.from_pairs")),
        "sparse.matmat_ms": scoped.ms("incl", named("BlockCSR.matmat")),
        "parallel.engine_build_ms": scoped.ms(
            "incl", named("ColoredPMEEngine.__init__")),
        "parallel.spread_ms": scoped.ms(
            "self", named("ColoredPMEEngine.spread_batch")),
        "parallel.interpolate_ms": scoped.ms(
            "self", named("ColoredPMEEngine.interpolate_batch")),
        "exec.context_start_ms": scoped.ms(
            "incl", named("ExecutionContext.__init__")),
        "exec.run_tasks_ms": scoped.ms(
            "incl", named("ExecutionContext.run_tasks")),
        "exec.tasks": scoped.count(
            "info.tasks", named("run_tasks"), count_units),
        "systems.make_suspension_ms": scoped.ms(
            "incl", named("systems.make_suspension")),
        "runtime.campaign_ms": scoped.ms("incl", named("Supervisor.run")),
        "serve.codec_ms": scoped.ms("self", codec),
        "serve.request_ms": scoped.ms(
            "incl", named("ServeClient.request"), kinds=("unit",)),
        "serve.operator_build_ms": scoped.ms(
            "incl", named("serve.build_operator")),
    }
    for phase, metric in PHASES.items():
        out[metric] = scoped.ms("info." + phase, lambda name: True)
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = scoped.ms(
            "self", lambda name, p=layer + ".": name.startswith(p),
            kinds=("unit",))
    return out
