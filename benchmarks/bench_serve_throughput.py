"""Serve-layer throughput: cross-request batching vs serial applies.

Eight closed-loop clients hammer one :class:`repro.serve`
:class:`~repro.serve.service.SimulationService` with single-vector
``mobility.apply`` requests.  The **batched** arm lets the
:class:`~repro.serve.batching.MobilityBatcher` coalesce up to 8
concurrent requests into one
:meth:`~repro.pme.operator.PMEOperator.apply_block` call (the paper's
Section IV.E block-of-vectors economics applied to *traffic*); the
**serial** arm pins ``max_batch=1`` so every request pays a full
single-vector pipeline.  Both arms run on **one** compute thread, so
the measured speedup is pure batching amortization — spread product,
stacked FFTs, fused influence function and one BCSR stream shared
across requests — not parallelism.

Every request is computed — the service answers ``mobility.apply``
straight from the batcher, with no result cache in front — and every
response is checked against a directly built reference operator, so
the speedup is measured on bit-identical answers.

The arms run alternately, ``ROUNDS`` rounds each (serial, batched,
serial, ...), and the recorded ``batching_speedup`` is the median of
the per-round ratios: on a shared 2-vCPU VM the serial arm alone swung
from 399 to 717 req/s between runs, so one ratio of two back-to-back
arms measured host drift as much as batching.  The per-round numbers are in
the record's ``meta["rounds"]``; the table rows are per-arm medians.

A client-disconnect smoke closes the loop on robustness: a client that
fires a request and vanishes mid-flight must not take the server (or
the next client) down.

Run ``python benchmarks/bench_serve_throughput.py``;
``BENCH_serve_throughput.json`` is written via ``common.record_benchmark``.
"""

import asyncio
import os
import socket
import tempfile
import threading
import time

import numpy as np

from common import bench_scale, print_table, record_benchmark
from repro.serve import ServeClient, ServeSettings, SimulationService, SystemSpec
from repro.serve.batching import build_operator
from repro.serve.protocol import encode_message

N = 100
PHI = 0.2
#: Looser mesh tolerance -> a real-space-heavy Ewald split, the regime
#: where block applies amortize best (paper Section IV.E: the FFTs are
#: the one stage that gains nothing from batching).
E_P = 1e-2
CLIENTS = 8
ROUNDS = 3
#: (label, max_batch, max_wait) of the two arms
ARMS = (("serial", 1, 0.0), ("batched", 8, 2e-3))
#: Per-arm columns of the table, in order (a row is label + these).
COLUMNS = ("batches", "elapsed", "req_s", "p50", "p90", "p99")


class _Server:
    """A service on a Unix socket, driven by a background thread."""

    def __init__(self, settings: ServeSettings):
        self.service = SimulationService(settings)
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self.service.serve_until_stopped())

    def __enter__(self) -> "_Server":
        self._thread.start()
        path = self.service.settings.socket_path
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            if os.path.exists(path):
                try:
                    probe = socket.socket(socket.AF_UNIX,
                                          socket.SOCK_STREAM)
                    probe.connect(path)
                    probe.close()
                    return self
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("serve socket never came up")

    def __exit__(self, *exc) -> None:
        self.service.request_stop()
        self._thread.join(timeout=30.0)


def _settings(work_dir: str, max_batch: int, max_wait: float
              ) -> ServeSettings:
    return ServeSettings(
        socket_path=os.path.join(work_dir, f"bench-{max_batch}.sock"),
        work_dir=os.path.join(work_dir, "jobs"),
        compute_threads=1,          # both arms: batching, not threads
        max_batch=max_batch, max_wait=max_wait,
        max_queue_columns=4 * CLIENTS, max_inflight=4)


def _run_arm(label: str, work_dir: str, max_batch: int, max_wait: float,
             requests_per_client: int, reference) -> dict:
    """One closed-loop load: every client sends, waits, sends again."""
    spec = SystemSpec(n=N, phi=PHI, e_p=E_P)
    latencies: list[float] = []
    answers: list[tuple[np.ndarray, np.ndarray]] = []
    lock = threading.Lock()
    start_barrier = threading.Barrier(CLIENTS + 1)
    errors: list[BaseException] = []

    def client_loop(client_index: int) -> None:
        rng = np.random.default_rng(1000 + client_index)
        try:
            with ServeClient(socket_path=settings.socket_path,
                             max_retries=50) as client:
                start_barrier.wait()
                for _ in range(requests_per_client):
                    forces = rng.standard_normal(3 * N)
                    t0 = time.perf_counter()
                    velocities = client.mobility_apply(spec, forces)
                    dt = time.perf_counter() - t0
                    with lock:
                        latencies.append(dt)
                        answers.append((forces, velocities))
        except BaseException as exc:
            errors.append(exc)
            raise

    settings = _settings(work_dir, max_batch, max_wait)
    with _Server(settings) as server:
        # warm the operator pool so both arms measure steady state
        with ServeClient(socket_path=settings.socket_path,
                         max_retries=50) as warm:
            warm.mobility_apply(spec, np.zeros(3 * N))
        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        stats = server.service.stats()
    if errors:
        raise errors[0]
    # bit-identity check, outside the timed region (concurrent applies
    # on one reference operator would race on its MobilityCache
    # workspaces anyway — the same reason the batcher serializes)
    for forces, velocities in answers:
        want = reference.apply_block(forces.reshape(-1, 1))[:, 0]
        assert velocities.tobytes() == want.tobytes(), \
            f"{label}: served bytes diverged from direct apply"
    total = CLIENTS * requests_per_client
    lat = np.sort(np.asarray(latencies))
    return {
        "elapsed": elapsed,
        "req_s": total / elapsed,
        "p50": float(np.percentile(lat, 50)),
        "p90": float(np.percentile(lat, 90)),
        "p99": float(np.percentile(lat, 99)),
        "batches": stats["batcher"]["batches_flushed"],
        "requests": stats["batcher"]["requests_batched"],
        "shed": stats["admission"]["shed_total"],
    }


def disconnect_smoke(work_dir: str) -> None:
    """Clients vanishing mid-flight must not hurt the next client."""
    spec = SystemSpec(n=N, phi=PHI, e_p=E_P)
    settings = _settings(work_dir, max_batch=8, max_wait=2e-3)
    rng = np.random.default_rng(0)
    with _Server(settings) as server:
        for _ in range(5):
            rude = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            rude.connect(settings.socket_path)
            rude.sendall(encode_message({
                "op": "mobility.apply", "id": 1, "system": spec.to_json(),
                "forces": rng.standard_normal(3 * N).tolist()}))
            rude.close()            # gone before the answer exists
        with ServeClient(socket_path=settings.socket_path,
                         max_retries=50) as client:
            velocities = client.mobility_apply(
                spec, rng.standard_normal(3 * N))
            assert velocities.shape == (3 * N,)
        served = server.service.requests_total
    print(f"disconnect smoke: 5 abandoned requests absorbed, "
          f"{served} requests served, follow-up client unaffected")


def main() -> None:
    requests_per_client = 96 if bench_scale() == "paper" else 24
    reference, _cache = build_operator(SystemSpec(n=N, phi=PHI, e_p=E_P))
    rounds: list[dict[str, dict]] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        for _ in range(ROUNDS):
            rounds.append({label: _run_arm(label, tmp, max_batch, max_wait,
                                           requests_per_client, reference)
                           for label, max_batch, max_wait in ARMS})
        disconnect_smoke(tmp)

    def median(label: str, column: str) -> float:
        return float(np.median([r[label][column] for r in rounds]))

    rows = [[label, CLIENTS, CLIENTS * requests_per_client,
             *(median(label, column) for column in COLUMNS)]
            for label, _, _ in ARMS]
    headers = ["arm", "clients", "requests", "batches", "wall (s)",
               "req/s", "p50 (s)", "p90 (s)", "p99 (s)"]
    print_table(f"Serve throughput: batched vs serial mobility applies "
                f"(n={N}, {CLIENTS} closed-loop clients, 1 compute "
                f"thread; medians of {ROUNDS} alternating rounds)",
                headers, rows)
    ratios = [r["batched"]["req_s"] / r["serial"]["req_s"] for r in rounds]
    speedup = float(np.median(ratios))
    serial_rps = median("serial", "req_s")
    batched_rps = median("batched", "req_s")
    record_benchmark("serve_throughput", headers, rows,
                     meta={"n": N, "phi": PHI, "clients": CLIENTS,
                           "e_p": E_P,
                           "requests_per_client": requests_per_client,
                           "serial_req_s": serial_rps,
                           "batched_req_s": batched_rps,
                           "batching_speedup": speedup,
                           "rounds": [{**r, "speedup": ratio}
                                      for r, ratio in zip(rounds, ratios)]})
    print(f"\ncross-request batching speedup: {speedup:.2f}x, median of "
          f"{ROUNDS} rounds ({', '.join(f'{x:.2f}x' for x in ratios)}; "
          f"median {serial_rps:.1f} -> {batched_rps:.1f} req/s)")


if __name__ == "__main__":
    main()
