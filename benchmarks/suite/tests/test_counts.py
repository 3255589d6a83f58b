"""Exact counts repeat bit-for-bit for a seed (bd_rebuild_n2000, 3 units)."""

import gc
import json

from conftest import REPO

import harness
import layers
import workloads
from tracing import Tracer

COUNTS = ("krylov.iters_per_block", "krylov.columns_per_block",
          "pme.apply_calls", "neighbor.pairs", "exec.tasks")


def _one_run(tmp_path):
    tracer = Tracer()
    layers.install(tracer)
    try:
        workload = workloads.WORKLOADS["bd_rebuild_n2000"](7, str(tmp_path))
        workload.min_units = workloads.COUNT_UNITS
        workload.prepare()
        samples = workload.window(
            harness.Probe(), 0.0, lambda i: True,
            lambda on, i: tracer.set_scope("unit", i, on))
    finally:
        tracer.unpatch()
    gc.collect()
    assert len(samples) == workloads.COUNT_UNITS
    scopes = {"unit": {s.scope: (1.0, 1) for s in samples}, "setup": {}}
    metrics = layers.span_metrics(tracer, scopes, workloads.COUNT_UNITS)
    counts = {name: metrics[name] for name in COUNTS}
    counts.update(workload._cache_facts())
    counts["digest"] = workload.facts["digest"]
    counts["nnz_blocks"] = workload.sim.integrator.operator.real.nnz_blocks
    return counts, set(metrics)


def test_counts_repeat_bit_for_bit(tmp_path):
    first, names = _one_run(tmp_path)
    second, _ = _one_run(tmp_path)
    assert first == second
    assert first["krylov.columns_per_block"] == 4
    assert first["neighbor.pairs"] > 0 and first["pme.apply_calls"] > 4
    assert first["pme.cache_misses"] == 0       # warm cache after prepare
    # the runner reports 0 for a listed metric nobody computes, so a
    # renamed span metric must not drift away from BENCHMARK.json
    with open(REPO / "BENCHMARK.json") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    # kept out of BENCHMARK.json: the layer sums behind the coverage check
    assert names - listed == {"serve.request_ms"} | {
        f"self.{layer}_ms" for layer in layers.LAYERS}


class _EchoConnection:
    def mobility_apply(self, spec, forces):
        return forces


def test_serve_keeps_a_fixed_number_of_responses_per_connection(tmp_path):
    """The cap holds over the slices of a window, not per slice."""
    import numpy as np

    workload = workloads.WORKLOADS["serve_apply_c2_n200"](0, str(tmp_path))
    workload.spec = None
    workload.conns = [_EchoConnection()] * workload.clients
    workload.rngs = [np.random.default_rng(c) for c in range(workload.clients)]
    workload.sampled = [[] for _ in range(workload.clients)]
    for _ in range(3):
        assert len(workload._slice(0.02)) > 2 * workload.keep
    assert [len(kept) for kept in workload.sampled] == [workload.keep] * 2
