"""The five workloads of the suite.

Each separates what the paper separates: reciprocal PME + block Krylov
(``bd_recip_n1000``), real-space/rebuild cost (``bd_rebuild_n2000``),
the multicore PME path (``pme_block_t2_n4000``), the multi-process
small-n regime (``ensemble_w2_n100``) and the serving front door
(``serve_apply_c2_n200``).  Every layer is driven from outside through
its public functions; inputs are generated from ``--seed`` only.

A workload provides

* ``prepare()`` — untimed: long-lived objects and the discarded
  warm-up unit,
* ``setup_once()`` — the *fresh set-up sequence* timed for ``setup_s``
  (all objects rebuilt from scratch),
* ``unit(i)`` — one unit of work (``window()`` drives it),
* ``verify()`` — untimed output checks; returns the failures,
* ``facts`` — exact counts and outputs gathered on the way.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import socket
import threading
import time
from typing import Any

import numpy as np

from repro import (MobilityCache, PMEOperator, ReproError, Simulation,
                   make_suspension, pme_relative_error, tune_parameters)
from repro.exec import ExecutionContext
from repro.runtime import Supervisor, TaskState, make_ensemble, positions_digest
from repro.serve import ServeClient, ServeSettings, SimulationService, SystemSpec
from repro.serve.batching import build_operator

import harness

PHI = 0.2
NPROC = len(os.sched_getaffinity(0))

#: Units whose exact counts are reported (they repeat bit-for-bit for a
#: given seed, whatever the length of the window).
COUNT_UNITS = 3


class Workload:
    """Common protocol; see the module docstring."""

    name = ""
    #: Fewest units a window runs, however slow the box.
    min_units = 2 * COUNT_UNITS

    def __init__(self, seed: int, scratch: str):
        self.seed = int(seed)
        self.scratch = scratch
        self.facts: dict[str, Any] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def setup_once(self) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> None:
        raise NotImplementedError

    def window(self, probe: harness.Probe, seconds: float, traced, on_trace
               ) -> list[harness.Sample]:
        return harness.timed_window(probe, self.unit, seconds,
                                    self.min_units, traced, on_trace)

    def verify(self, trace: bool, probe: harness.Probe) -> list[str]:
        """Output checks (untimed); ``trace`` adds the traced-pass extras."""
        raise NotImplementedError

    def layer_facts(self, samples: list[harness.Sample],
                    spans: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics that do not come from spans alone.

        ``spans`` holds the span-derived metrics of the run.
        """
        return {}

    def close(self) -> None:
        """Stop whatever ``prepare`` started."""

    def _mark_cache(self, cache: MobilityCache) -> None:
        self._cache_marks.append((cache.hits, cache.misses))

    def _cache_facts(self) -> dict[str, float]:
        """MobilityCache hits/misses per unit over the counted units."""
        marks = self._cache_marks[:COUNT_UNITS + 1]
        units = max(1, len(marks) - 1)
        return {"pme.cache_hits": (marks[-1][0] - marks[0][0]) / units,
                "pme.cache_misses": (marks[-1][1] - marks[0][1]) / units}


# ----------------------------------------------------------------------
# matrix-free BD (Algorithm 2): one block per unit
# ----------------------------------------------------------------------

class _BdBlock(Workload):
    """One ``lambda_RPY`` block of matrix-free BD on a long-lived simulation."""

    n = 0
    lambda_rpy = 0

    def _pme_params(self, box):
        return None                 # tuned by the integrator

    def _simulation(self) -> Simulation:
        suspension = make_suspension(self.n, PHI, seed=self.seed)
        return Simulation(suspension, "matrix-free", dt=1e-3,
                          lambda_rpy=self.lambda_rpy, seed=self.seed,
                          pme_params=self._pme_params(suspension.box),
                          target_ep=1e-3, e_k=1e-2)

    def prepare(self) -> None:
        self.sim = self._simulation()
        self.stats: list[Any] = []
        for _ in range(2):                           # discarded warm-up
            self.sim.run(n_steps=self.lambda_rpy)
        self._cache_marks: list[tuple[int, int]] = []
        self._mark_cache(self.sim.integrator.operator.cache)

    def setup_once(self) -> None:
        self._simulation().run(n_steps=1)

    def unit(self, i: int) -> None:
        traj, stats = self.sim.run(n_steps=self.lambda_rpy)
        self.stats.append(stats)
        self._mark_cache(self.sim.integrator.operator.cache)
        if i == COUNT_UNITS - 1:
            self.facts["digest"] = positions_digest(traj.positions[-1])
        self._last = traj.positions[-1]

    def verify(self, trace: bool, probe: harness.Probe) -> list[str]:
        failures = []
        if not np.all(np.isfinite(self._last)):
            failures.append("non-finite positions")
        if any(s.n_steps != self.lambda_rpy for s in self.stats):
            failures.append("a unit did not take lambda_rpy steps")
        iters = [it for s in self.stats for it in s.krylov_iterations]
        if len(iters) != len(self.stats) or not all(0 < it < 200
                                                    for it in iters):
            failures.append(f"Krylov did not converge: {iters}")
        op = self.sim.integrator.operator
        e_p = pme_relative_error(op, n_probe=1)
        if not e_p <= 1e-3:
            failures.append(f"pme_relative_error {e_p:.3g} > 1e-3")
        self.facts.update({"pme.e_p": e_p,
                           "sparse.nnz_blocks": op.real.nnz_blocks})
        return failures

    def layer_facts(self, samples, spans) -> dict[str, float]:
        def phase(key: str) -> float:
            return harness.median([
                harness.normalise(stats.timers.elapsed(key) * 1e3,
                                  sample.flank_ms)
                for stats, sample in zip(self.stats, samples)])
        return {"core.mobility_build_ms": phase("mobility"),
                "core.brownian_ms": phase("brownian"),
                "core.forces_ms": phase("forces"),
                "core.propagate_ms": phase("propagate"),
                "pme.e_p": self.facts["pme.e_p"],
                "sparse.nnz_blocks": self.facts["sparse.nnz_blocks"],
                **self._cache_facts()}


class BdRecipN1000(_BdBlock):
    """Tuned split (K=54, r_max=6): block Lanczos + reciprocal PME dominate."""

    name = "bd_recip_n1000"
    n = 1000
    lambda_rpy = 8


class BdRebuildN2000(_BdBlock):
    """Real-space-heavy split (K=36, r_max=10): the rebuild dominates."""

    name = "bd_rebuild_n2000"
    n = 2000
    lambda_rpy = 4

    def _pme_params(self, box):
        return tune_parameters(self.n, box, target_ep=1e-3,
                               r_max_candidates=[10.0])


# ----------------------------------------------------------------------
# the multicore PME path, no Krylov and no rebuild
# ----------------------------------------------------------------------

class PmeBlockT2N4000(Workload):
    """``apply_block`` of 8 columns on a 2-thread context; nothing else."""

    name = "pme_block_t2_n4000"
    n = 4000
    columns = 8

    def _operator(self, context, cache=None):
        params = tune_parameters(self.n, self.suspension.box, target_ep=1e-3)
        return PMEOperator(self.suspension.positions, self.suspension.box,
                           params, context=context,
                           cache=cache or MobilityCache())

    def _context(self) -> ExecutionContext:
        return ExecutionContext("threads", workers=min(2, NPROC))

    def prepare(self) -> None:
        self.suspension = make_suspension(self.n, PHI, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.blocks = [rng.standard_normal((3 * self.n, self.columns))
                       for _ in range(8)]
        self.context = self._context()
        self.op = self._operator(self.context)
        self.first = self.op.apply_block(self.blocks[0]).copy()
        self._cache_marks = []
        self._mark_cache(self.op.cache)

    def setup_once(self) -> None:
        with self._context() as context:
            self._operator(context).apply_block(self.blocks[0])

    def unit(self, i: int) -> None:
        self._last = self.op.apply_block(self.blocks[i % len(self.blocks)])
        self._mark_cache(self.op.cache)

    def verify(self, trace: bool, probe: harness.Probe) -> list[str]:
        failures = []
        if not np.all(np.isfinite(self._last)):
            failures.append("non-finite velocities")
        # the reference operators borrow the measured one's cache: results
        # do not depend on it, and 280 MB of workspace is not faulted in
        # twice more
        cache = self.op.cache
        plain = self._operator(None, cache).apply_block(self.blocks[0]).copy()
        err = float(np.max(np.abs(plain - self.first))
                    / np.max(np.abs(plain)))
        if not err <= 1e-12:
            failures.append(f"threads vs no-context apply_block: {err:.3g}")
        with ExecutionContext("serial") as serial:
            same = self._operator(serial, cache).apply_block(self.blocks[0])
        if same.tobytes() != self.first.tobytes():
            failures.append("threads and serial contexts differ bitwise")
        return failures

    def layer_facts(self, samples, spans) -> dict[str, float]:
        return {"sparse.nnz_blocks": self.op.real.nnz_blocks,
                **self._cache_facts()}

    def close(self) -> None:
        self.context.close()


# ----------------------------------------------------------------------
# supervised multi-process ensemble
# ----------------------------------------------------------------------

class EnsembleW2N100(Workload):
    """A supervised 8-task campaign on 2 worker processes per unit."""

    name = "ensemble_w2_n100"
    tasks = 8
    n = 100
    steps = 16
    lambda_rpy = 8

    def _campaign(self, n_tasks: int, n_steps: int):
        directory = os.path.join(self.scratch, f"campaign-{self._serial}")
        self._serial += 1
        os.makedirs(directory)
        specs = make_ensemble(n_tasks, n=self.n, phi=PHI, n_steps=n_steps,
                              seed=self.seed, lambda_rpy=self.lambda_rpy)
        # a generous hang timeout: a stall of the shared box is not a
        # hung worker, and a restart would count as a failed unit
        report = Supervisor(specs, directory, n_workers=2,
                            hang_timeout=60.0).run()
        return specs, report, directory

    def prepare(self) -> None:
        self._serial = 0
        self.reports: list[Any] = []
        self.unit(-1)                               # discarded warm-up
        self.reports.clear()

    def setup_once(self) -> None:
        _, _, directory = self._campaign(1, 1)
        shutil.rmtree(directory)

    def unit(self, i: int) -> None:
        self.specs, report, directory = self._campaign(self.tasks, self.steps)
        self.reports.append(report)
        self.facts["runtime.checkpoint_bytes"] = sum(
            os.path.getsize(os.path.join(directory, f))
            for f in os.listdir(directory) if ".ckpt" in f)
        shutil.rmtree(directory)

    def direct(self, spec) -> tuple[str, Any]:
        """The task as a plain in-process ``Simulation.run``."""
        suspension = make_suspension(spec.n, spec.phi, seed=spec.system_seed)
        sim = Simulation(suspension, "matrix-free", dt=spec.dt,
                         lambda_rpy=spec.lambda_rpy, seed=spec.seed,
                         e_k=spec.e_k)
        traj, stats = sim.run(n_steps=spec.n_steps)
        return positions_digest(traj.positions[-1]), stats

    def verify(self, trace: bool, probe: harness.Probe) -> list[str]:
        failures = []
        restarts = sum(len(r.restarts) for r in self.reports)
        if restarts:
            failures.append(f"{restarts} worker restarts")
        for report in self.reports:
            if any(t.state is not TaskState.DONE
                   for t in report.manifest.tasks):
                failures.append(f"campaign not DONE: {report.summary()}")
                break
        digests = self.reports[-1].digests
        if any(r.digests != digests for r in self.reports):
            failures.append("campaign digests differ between units")
        # the traced pass runs all tasks directly (runtime.overhead_share)
        results: list[tuple[str, Any]] = []
        chosen = self.specs if trace else self.specs[:2]
        sample, _ = harness.timed(
            probe, probe.sample(),
            lambda: results.extend(self.direct(spec) for spec in chosen))
        if sample.failed:
            failures.append("a direct Simulation.run failed")
        for spec, (digest, _) in zip(chosen, results):
            if digest != digests.get(spec.task_id):
                failures.append(f"task {spec.task_id} digest != direct run")
        self.facts.update({"runtime.restarts": restarts,
                           "digest": digests.get(0),
                           "direct": (sample, [st for _, st in results])})
        return failures

    def layer_facts(self, samples, spans) -> dict[str, float]:
        direct, stats = self.facts["direct"]
        campaign_ms = harness.median([s.norm_ms for s in samples])

        def phase(key: str) -> float:
            return harness.normalise(
                sum(st.timers.elapsed(key) for st in stats) * 1e3,
                direct.flank_ms)
        return {"core.mobility_build_ms": phase("mobility"),
                "core.brownian_ms": phase("brownian"),
                "core.forces_ms": phase("forces"),
                "core.propagate_ms": phase("propagate"),
                "runtime.overhead_share":
                    1.0 - direct.norm_ms / 2.0 / campaign_ms,
                "runtime.restarts": self.facts["runtime.restarts"],
                "runtime.checkpoint_bytes":
                    self.facts["runtime.checkpoint_bytes"]}


# ----------------------------------------------------------------------
# the serving front door, closed loop
# ----------------------------------------------------------------------

class _Server:
    """An in-process service on a Unix socket, on a background loop."""

    def __init__(self, settings: ServeSettings):
        self.service = SimulationService(settings)
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.service.serve_until_stopped()),
            name="suite-serve", daemon=True)

    def start(self) -> None:
        self._thread.start()
        path = self.service.settings.socket_path
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(path)
                return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("serve socket never came up")

    def stop(self) -> None:
        self.service.request_stop()
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not stop")


class ServeApplyC2N200(Workload):
    """Closed loop of single-column ``mobility.apply`` on 2 connections."""

    name = "serve_apply_c2_n200"
    n = 200
    clients = 2
    slice_seconds = 1.0
    max_wait = 2e-3               # batch window of the service
    min_units = 4                 # slices
    keep = 16                     # sampled responses per connection

    def prepare(self) -> None:
        self.spec = SystemSpec(n=self.n, phi=PHI, system_seed=self.seed)
        # relative path: AF_UNIX paths are limited to ~100 bytes
        sock = os.path.join(os.path.relpath(self.scratch), "serve.sock")
        self.server = _Server(ServeSettings(
            socket_path=sock, work_dir=os.path.join(self.scratch, "jobs"),
            compute_threads=1, max_batch=8, max_wait=self.max_wait))
        self.server.start()
        self.conns = [ServeClient(socket_path=sock)
                      for _ in range(self.clients)]
        self.rngs = [np.random.default_rng([self.seed, c])
                     for c in range(self.clients)]
        # (forces, velocities) of the first ``keep`` requests, per connection
        self.sampled: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(self.clients)]
        self._fresh = 0
        self.conns[0].mobility_apply(self.spec, np.zeros(3 * self.n))
        self._slice(0.3)                            # discarded warm-up
        for kept in self.sampled:
            kept.clear()

    def setup_once(self) -> None:
        """First request for a system that is not yet resident."""
        self._fresh += 1
        spec = SystemSpec(n=self.n, phi=PHI,
                          system_seed=self.seed + self._fresh)
        self.conns[0].mobility_apply(spec, np.zeros(3 * self.n))

    def _client(self, c: int, seconds: float, out: list[float]) -> None:
        conn, rng, kept = self.conns[c], self.rngs[c], self.sampled[c]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            forces = rng.standard_normal(3 * self.n)
            t0 = time.perf_counter()
            try:
                velocities = conn.mobility_apply(self.spec, forces)
            except (ReproError, OSError) as exc:
                print(f"request failed: {type(exc).__name__}: {exc}",
                      flush=True)
                out.append(-1.0)
                continue
            out.append((time.perf_counter() - t0) * 1e3)
            if len(kept) < self.keep:
                kept.append((forces, velocities))

    def _slice(self, seconds: float) -> list[float]:
        """Both connections send back to back for ``seconds``."""
        outs: list[list[float]] = [[] for _ in range(self.clients)]
        threads = [threading.Thread(target=self._client,
                                    args=(c, seconds, outs[c]))
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [x for out in outs for x in out]

    def window(self, probe, seconds, traced, on_trace):
        """1-s slices with a probe between; the unit is one request."""
        # the set-up repeats may have pushed the system out of the
        # service's operator pool (LRU, 8 systems): bring it back, untimed
        # (ones: the result cache still holds the answer to prepare's zeros)
        self.conns[0].mobility_apply(self.spec, np.ones(3 * self.n))
        slices: list[list[float]] = []
        timed = harness.timed_window(
            probe, lambda i: slices.append(self._slice(self.slice_seconds)),
            seconds, self.min_units, traced, on_trace)
        # two closed-loop connections never fill a batch of 8, so every
        # request sits out the batch window: a timer, not work to normalise
        return [harness.Sample(abs(x), s.flank_ms, s.traced, x < 0, s.scope,
                               fixed_ms=self.max_wait * 1e3,
                               minflt=s.minflt / len(latencies))
                for s, latencies in zip(timed, slices) for x in latencies]

    def verify(self, trace: bool, probe: harness.Probe) -> list[str]:
        failures = []
        reference = build_operator(self.spec)[0]
        sampled = [pair for kept in self.sampled for pair in kept]
        wanted: list[np.ndarray] = []
        # back to back, as the service issues them: a probe between
        # two applies would evict the operator from the cache
        direct, boundary = harness.timed(
            probe, probe.sample(), lambda: wanted.extend(
                reference.apply_block(forces.reshape(-1, 1))[:, 0]
                for forces, _ in sampled))
        if direct.failed or any(
                velocities.tobytes() != want.tobytes()
                for (_, velocities), want in zip(sampled, wanted)):
            failures.append("served bytes differ from direct apply_block")
        if len(sampled) != self.clients * self.keep:
            failures.append(f"{len(sampled)} responses sampled")
        self.facts["direct_ms"] = direct.norm_ms / max(1, len(sampled))
        if trace:
            jobs = []
            for j in range(3):
                sample, boundary = harness.timed(probe, boundary,
                                                 lambda: self._job(j))
                jobs.append(sample)
            if any(s.failed for s in jobs):
                failures.append("a simulate job failed")
            self.facts["job_ms"] = harness.median([s.norm_ms for s in jobs])
        self.facts["stats"] = self.conns[0].stats()
        return failures

    def _job(self, j: int) -> None:
        result = self.conns[0].simulate(self.spec, steps=32,
                                        seed=self.seed + j)
        if result.get("state") != "done":
            raise RuntimeError(f"simulate job ended {result.get('state')}")

    def layer_facts(self, samples, spans) -> dict[str, float]:
        stats = self.facts["stats"]
        latency = [s.norm_ms for s in samples if not s.failed]
        batcher = stats["batcher"]
        ours = self.spec.operator_key()[:12]
        cache = next(e["mobility_cache"] for e in stats["operators"]["systems"]
                     if e["fingerprint"] == ours)
        served = max(1, stats["requests_total"])
        # the service reports raw seconds; scale by the run's typical probe
        scale = harness.PROBE_REF_MS / harness.median(
            [s.flank_ms for s in samples])
        server = stats["latency"].get("mobility.apply", {})
        return {
            "serve.server_p50_ms": server.get("p50_s", 0.0) * 1e3 * scale,
            "serve.batch_occupancy": (batcher["requests_batched"]
                                      / max(1, batcher["batches_flushed"])),
            "serve.shed": stats["admission"]["shed_total"],
            "serve.cache_hits": stats["cache"]["hits"],
            "serve.overhead_ms": (harness.median(latency)
                                  - self.facts["direct_ms"]),
            "serve.lat_p95_ms": harness.quantile(latency, 0.95),
            "serve.job_p50_ms": self.facts.get("job_ms", 0.0),
            # requests overlap (2 in flight, batched applies), so spans on
            # the server threads cannot be nested under a request: serve's
            # own time is what is left of a request after the layers below
            "self.serve_ms": spans["serve.request_ms"] - sum(
                v for k, v in spans.items()
                if k.startswith("self.") and k != "self.serve_ms"),
            "pme.cache_hits": cache["hits"] / served,
            "pme.cache_misses": cache["misses"] / served,
        }

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.server.stop()


WORKLOADS = {w.name: w for w in (BdRecipN1000, BdRebuildN2000,
                                 PmeBlockT2N4000, EnsembleW2N100,
                                 ServeApplyC2N200)}
