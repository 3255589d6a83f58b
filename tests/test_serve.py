"""Tests for ``repro.serve`` — protocol, batching, jobs, service.

The load-bearing assertions are the determinism contracts:

* a batched ``mobility.apply`` answer equals a direct
  ``PMEOperator.apply_block`` call **byte for byte** (slicing columns
  out of a coalesced batch changes nothing);
* a served ``simulate`` digest equals a direct ``Simulation.run`` of
  the same recipe;
* under oversubscription the service sheds load instead of queueing
  unboundedly, and a shed request carries a usable Retry-After.

No pytest-asyncio: async scenarios run under ``asyncio.run`` inside
ordinary test functions; socket tests drive the real server over a
Unix socket in-process.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.exec import ExecutionContext
from repro.pme.cache import MobilityCache
from repro.pme.operator import PMEOperator
from repro.pme.tuning import tune_parameters
from repro.serve import (
    MobilityBatcher,
    OperatorPool,
    ProtocolError,
    ServeClient,
    ServeRequestError,
    ServeSettings,
    SimulationService,
    SystemSpec,
)
from repro.serve.batching import build_operator
from repro.serve.protocol import (
    decode_array,
    decode_line,
    encode_array,
    encode_message,
    validate_request,
)
from repro.systems.suspension import make_suspension

SPEC = SystemSpec(n=16, phi=0.2, system_seed=0)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

def test_array_codec_roundtrip_is_bit_exact():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((7, 3)) * 1e-17 + rng.standard_normal((7, 3))
    decoded = decode_array(encode_array(arr))
    assert decoded.dtype == np.float64
    assert decoded.tobytes() == arr.tobytes()


def test_decode_array_accepts_lists_and_rejects_garbage():
    assert decode_array([1.0, 2.0]).tolist() == [1.0, 2.0]
    with pytest.raises(ProtocolError):
        decode_array("nope")
    with pytest.raises(ProtocolError):
        decode_array({"shape": [3], "b64": "AAAA"})  # wrong byte count


def test_message_framing_roundtrip():
    message = {"op": "ping", "id": "x", "nested": {"a": [1, 2]}}
    line = encode_message(message)
    assert line.endswith(b"\n")
    assert decode_line(line) == message
    with pytest.raises(ProtocolError):
        decode_line(b"not json\n")
    with pytest.raises(ProtocolError):
        decode_line(b"[1, 2]\n")  # not an object


def test_validate_request_envelope():
    assert validate_request({"op": "ping", "id": 1}) == "ping"
    with pytest.raises(ProtocolError):
        validate_request({"op": "nope", "id": 1})
    with pytest.raises(ProtocolError):
        validate_request({"op": "ping", "id": None})


def test_system_spec_validation_and_unknown_fields():
    with pytest.raises(ProtocolError):
        SystemSpec(n=0)
    with pytest.raises(ProtocolError):
        SystemSpec(n=10, phi=0.9)
    with pytest.raises(ProtocolError):
        SystemSpec.from_json({"n": 10, "bogus": 1})
    with pytest.raises(ProtocolError):
        SystemSpec.from_json({"phi": 0.1})  # n required
    spec = SystemSpec.from_json({"n": 10, "phi": 0.1})
    assert spec.n == 10 and spec.phi == 0.1


def test_system_with_kernel_field_is_unknown():
    # the RPY tensor is the one hydrodynamic kernel: a "kernel" field,
    # which old clients sent, is an unknown system field
    with pytest.raises(ProtocolError, match="unknown system fields"):
        SystemSpec.from_json({"n": 16, "kernel": "rpy"})


def test_fingerprint_vs_operator_key_granularity():
    a = SystemSpec(n=16, dt=1e-3)
    b = SystemSpec(n=16, dt=2e-3)      # dt: simulate-only knob
    c = SystemSpec(n=16, e_p=1e-4)     # e_p: changes the operator
    assert a.fingerprint() != b.fingerprint()
    assert a.operator_key() == b.operator_key()
    assert a.operator_key() != c.operator_key()
    assert a.fingerprint() == SystemSpec(n=16, dt=1e-3).fingerprint()


# ----------------------------------------------------------------------
# batching: bit identity against direct apply_block
# ----------------------------------------------------------------------

def test_batched_applies_bit_identical_to_direct():
    rng = np.random.default_rng(7)
    # direct reference: a fresh operator, one apply per request
    operator, _cache = build_operator(SPEC)

    async def scenario(forces, max_batch):
        with ExecutionContext("threads", workers=2) as context:
            pool = OperatorPool(context.thread_pool())
            batcher = MobilityBatcher(pool, context.thread_pool(),
                                      max_batch=max_batch,
                                      max_wait=0.05)
            results = await asyncio.gather(
                *(batcher.submit(SPEC, f) for f in forces))
            await batcher.drain()
            return results, batcher.stats()

    # an 8-wide batch, and the 16-wide one `serve --max-batch 16` forms
    for widths in ((1, 2, 1, 3, 1), (4, 1, 8, 3)):
        forces = [rng.standard_normal((3 * SPEC.n, s)) for s in widths]
        reference = [operator.apply_block(f) for f in forces]
        results, stats = asyncio.run(scenario(forces, sum(widths)))
        # all requests coalesced into one apply_block
        assert stats["batches_flushed"] == 1
        assert stats["requests_batched"] == len(widths)
        assert stats["backlog_columns"] == 0
        for got, want in zip(results, reference):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_batcher_flushes_at_max_batch_without_waiting():
    async def scenario():
        with ExecutionContext("threads", workers=1) as context:
            pool = OperatorPool(context.thread_pool())
            batcher = MobilityBatcher(pool, context.thread_pool(),
                                      max_batch=2, max_wait=60.0)
            batcher.connect("silent")
            rng = np.random.default_rng(0)
            forces = [rng.standard_normal((3 * SPEC.n, 1))
                      for _ in range(2)]
            # max_wait is a minute and a connection never sends: only
            # the size trigger can flush
            results = await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(SPEC, f)
                                 for f in forces)), timeout=30.0)
            await batcher.drain()
            assert batcher.batches_flushed == 1
            return results

    results = asyncio.run(scenario())
    assert all(r.shape == (3 * SPEC.n, 1) for r in results)


def test_batcher_rejects_wrong_shape():
    async def scenario():
        with ExecutionContext("threads", workers=1) as context:
            pool = OperatorPool(context.thread_pool())
            batcher = MobilityBatcher(pool, context.thread_pool())
            with pytest.raises(ProtocolError):
                await batcher.submit(SPEC, np.zeros((5, 1)))

    asyncio.run(scenario())


def test_single_flight_deduplicates_concurrent_callers(monkeypatch):
    # concurrent first acquires of one key share one build
    from repro.serve import batching

    calls = []
    real = batching.build_operator
    monkeypatch.setattr(batching, "build_operator",
                        lambda spec: calls.append(spec) or real(spec))

    async def scenario():
        with ExecutionContext("threads", workers=2) as context:
            pool = OperatorPool(context.thread_pool())
            entries = await asyncio.gather(
                *(pool.acquire(SPEC.operator_key(), SPEC)
                  for _ in range(4)))
            assert pool.builds == 1 and len(calls) == 1
            assert all(e is entries[0] for e in entries)
            assert not pool._building        # the finished build is gone

    asyncio.run(scenario())


def test_single_flight_cancelled_caller_hands_over(monkeypatch):
    # the caller that started a build is cancelled (its client
    # disconnected): the build runs on and the joiner gets its answer
    from repro.serve import batching

    release = threading.Event()
    real = batching.build_operator

    def gated(spec):
        release.wait(timeout=30.0)
        return real(spec)

    monkeypatch.setattr(batching, "build_operator", gated)

    async def scenario():
        with ExecutionContext("threads", workers=2) as context:
            pool = OperatorPool(context.thread_pool())
            first = asyncio.ensure_future(
                pool.acquire(SPEC.operator_key(), SPEC))
            await asyncio.sleep(0)
            joiner = asyncio.ensure_future(
                pool.acquire(SPEC.operator_key(), SPEC))
            await asyncio.sleep(0)
            first.cancel()
            await asyncio.sleep(0)
            assert first.cancelled() and not joiner.done()
            release.set()
            entry = await asyncio.wait_for(joiner, timeout=30.0)
            assert pool.builds == 1 and len(pool) == 1
            assert await pool.acquire(SPEC.operator_key(), SPEC) is entry
            assert not pool._building

    asyncio.run(scenario())


def test_operator_pool_builds_once_and_bounds_residency(monkeypatch):
    from repro.serve import batching

    monkeypatch.setattr(batching, "MAX_SYSTEMS", 1)

    async def scenario():
        with ExecutionContext("threads", workers=2) as context:
            pool = OperatorPool(context.thread_pool())
            entries = await asyncio.gather(
                *(pool.acquire(SPEC.operator_key(), SPEC)
                  for _ in range(4)))
            assert pool.builds == 1
            assert all(e is entries[0] for e in entries)
            other = SystemSpec(n=18, phi=0.2)
            await pool.acquire(other.operator_key(), other)
            assert pool.builds == 2
            assert len(pool) == 1       # LRU bound evicted the first

    asyncio.run(scenario())


def test_operator_pool_failed_build_is_not_kept(monkeypatch):
    from repro.serve import batching

    real = batching.build_operator
    attempts = []

    def flaky(spec):
        attempts.append(spec)
        if len(attempts) == 1:
            raise ValueError("boom")
        return real(spec)

    monkeypatch.setattr(batching, "build_operator", flaky)

    async def scenario():
        with ExecutionContext("threads", workers=2) as context:
            pool = OperatorPool(context.thread_pool())
            failed = await asyncio.gather(
                *(pool.acquire(SPEC.operator_key(), SPEC)
                  for _ in range(3)), return_exceptions=True)
            # every concurrent caller saw the one failure
            assert all(isinstance(e, ValueError) for e in failed)
            assert pool.builds == 0 and len(pool) == 0
            assert not pool._building
            entry = await pool.acquire(SPEC.operator_key(), SPEC)
            assert pool.builds == 1 and len(attempts) == 2
            assert await pool.acquire(SPEC.operator_key(), SPEC) is entry

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# MobilityCache under concurrency (satellite)
# ----------------------------------------------------------------------

def test_mobility_cache_concurrent_hit_miss_counters_exact():
    from repro.geometry.box import Box

    cache = MobilityCache()
    box = Box.for_volume_fraction(16, 0.2)
    n_threads, n_lookups = 8, 50
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait()
        for _ in range(n_lookups):
            cache.mesh(box, 8)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # exactly one build ever happened, and no lookup was lost
    assert cache.misses == 1
    assert cache.hits == n_threads * n_lookups - 1
    assert cache.stats()["meshes"] == 1


def test_mobility_cache_rebuild_during_apply_stays_bit_identical():
    suspension = make_suspension(16, 0.2, seed=0)
    params = tune_parameters(suspension.n, suspension.box,
                             fluid=suspension.fluid)
    cache = MobilityCache()
    operator = PMEOperator(suspension.positions, suspension.box, params,
                           fluid=suspension.fluid, cache=cache)
    rng = np.random.default_rng(3)
    forces = rng.standard_normal((3 * 16, 2))
    reference = operator.apply_block(forces).copy()

    barrier = threading.Barrier(2)
    outputs: list[bytes] = []
    errors: list[BaseException] = []

    def rebuild():
        # the Algorithm-2 cadence: fresh operators against the shared
        # cache while another thread is applying
        try:
            barrier.wait()
            for _ in range(4):
                PMEOperator(suspension.positions, suspension.box,
                            params, fluid=suspension.fluid, cache=cache)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def apply():
        try:
            barrier.wait()
            for _ in range(4):
                outputs.append(operator.apply_block(forces).tobytes())
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=rebuild),
               threading.Thread(target=apply)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(out == reference.tobytes() for out in outputs)
    stats = cache.stats()
    # every rebuild was answered from the cache: entry counts stayed
    # at one per kind and the counters balanced
    assert stats["meshes"] == 1 and stats["influences"] == 1
    assert stats["hits"] + stats["misses"] >= 8


# ----------------------------------------------------------------------
# full service over a Unix socket
# ----------------------------------------------------------------------

def _settings(tmp_path, **overrides) -> ServeSettings:
    defaults = dict(socket_path=str(tmp_path / "serve.sock"),
                    work_dir=str(tmp_path / "jobs"),
                    compute_threads=2, max_wait=2e-3)
    defaults.update(overrides)
    return ServeSettings(**defaults)


def _run_service(settings: ServeSettings, scenario):
    """Run ``scenario(service)`` against a started service."""

    async def main():
        service = SimulationService(settings)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(main())


async def _request(path: str, *messages, keep_reading: bool = True):
    """Open a connection, pipeline requests, collect the responses."""
    reader, writer = await asyncio.open_unix_connection(
        path, limit=2 ** 25)
    for message in messages:
        writer.write(encode_message(message))
    await writer.drain()
    responses = []
    if keep_reading:
        while len(responses) < len(messages):
            line = await reader.readline()
            if not line:
                break
            decoded = json.loads(line)
            if "event" in decoded:
                continue
            responses.append(decoded)
    writer.close()
    return responses


def test_service_mobility_bit_identity_and_cache(tmp_path):
    rng = np.random.default_rng(11)
    forces = rng.standard_normal(3 * SPEC.n)
    operator, _ = build_operator(SPEC)
    want = operator.apply_block(forces.reshape(-1, 1))[:, 0]

    async def scenario(service):
        path = service.settings.socket_path
        request = {"op": "mobility.apply", "id": 1,
                   "system": SPEC.to_json(),
                   "forces": encode_array(forces)}
        first, = await _request(path, request)
        again, = await _request(path, {**request, "id": 2})
        return first, again, service.stats()

    first, again, stats = _run_service(_settings(tmp_path), scenario)
    assert first["status"] == "ok"
    got = decode_array(first["result"]["velocities"])
    assert got.tobytes() == want.tobytes()
    # identical request: computed again, same bytes; mobility traffic
    # is never answered from a job directory
    assert "cached" not in again["result"]
    assert decode_array(
        again["result"]["velocities"]).tobytes() == want.tobytes()
    assert stats["batcher"]["requests_batched"] == 2
    assert stats["cache"] == {"hits": 0, "misses": 0}


@pytest.mark.parametrize("bad", [{"kernel": "foo"}, {"p": 1}, {"p": 40}],
                         ids=["kernel-foo", "p-1", "p-40"])
def test_service_rejects_bad_kernel_and_order_before_building(
        tmp_path, monkeypatch, bad):
    # checked on the wire: a config error, before any suspension is
    # generated or the tuner runs in a worker thread
    import repro.systems.suspension as suspension

    built = []
    real = suspension.make_suspension
    monkeypatch.setattr(suspension, "make_suspension",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    system = {**SPEC.to_json(), **bad}

    async def scenario(service):
        path = service.settings.socket_path
        replies = await _request(
            path,
            {"op": "mobility.apply", "id": 1, "system": system,
             "forces": encode_array(np.zeros(3 * SPEC.n))},
            {"op": "simulate", "id": 2, "system": system, "steps": 2})
        return replies, service.pool.builds

    replies, builds = _run_service(_settings(tmp_path), scenario)
    assert [r["status"] for r in replies] == ["error", "error"], replies
    assert [r["kind"] for r in replies] == ["config", "config"], replies
    assert builds == 0 and built == []


def test_service_simulate_digest_matches_direct_simulation(tmp_path):
    from repro.core.simulation import Simulation
    from repro.runtime.tasks import positions_digest

    spec = SystemSpec(n=16, phi=0.2, system_seed=0, lambda_rpy=4)
    seed, steps = 5, 8

    # direct path: the same deterministic recipe, run in-process
    suspension = make_suspension(spec.n, spec.phi, seed=spec.system_seed)
    params = tune_parameters(suspension.n, suspension.box,
                             target_ep=spec.e_p, p=spec.p,
                             fluid=suspension.fluid)
    simulation = Simulation(suspension, dt=spec.dt,
                            lambda_rpy=spec.lambda_rpy, seed=seed,
                            pme_params=params, e_k=spec.e_k)
    trajectory, _stats = simulation.run(steps, record_interval=steps)
    direct_digest = positions_digest(trajectory.positions[-1])

    async def scenario(service):
        path = service.settings.socket_path
        response, = await _request(path, {
            "op": "simulate", "id": "job-1", "system": spec.to_json(),
            "seed": seed, "steps": steps})
        return response

    response = _run_service(_settings(tmp_path), scenario)
    assert response["status"] == "ok", response
    assert response["result"]["state"] == "done"
    assert response["result"]["digest"] == direct_digest


def test_service_simulate_concurrent_requests_deduplicate(tmp_path):
    spec = SystemSpec(n=16, phi=0.2, lambda_rpy=4)

    async def scenario(service):
        path = service.settings.socket_path
        request = {"op": "simulate", "system": spec.to_json(),
                   "seed": 1, "steps": 8}
        pair = await asyncio.gather(
            _request(path, {**request, "id": "a"}),
            _request(path, {**request, "id": "b"}))
        return pair, service.jobs.started

    (first, second), started = _run_service(_settings(tmp_path), scenario)
    assert started == 1              # one campaign served both clients
    assert first[0]["result"]["digest"] == second[0]["result"]["digest"]


def test_finished_simulate_is_answered_from_its_job_directory(tmp_path):
    # two services, one after the other, on one work_dir: the second
    # answers the repeat from the first one's job directory
    spec = SystemSpec(n=16, phi=0.2, lambda_rpy=4)
    request = {"op": "simulate", "id": "r", "system": spec.to_json(),
               "seed": 4, "steps": 8}

    async def scenario(service):
        response, = await _request(service.settings.socket_path, request)
        return response, service.jobs.started, service.stats()["cache"]

    settings = _settings(tmp_path)
    first, started, cache = _run_service(settings, scenario)
    assert first["status"] == "ok", first
    assert first["result"]["state"] == "done"
    assert not first["result"]["cached"]
    assert started == 1
    assert (cache["hits"], cache["misses"]) == (0, 1)

    again, started, cache = _run_service(settings, scenario)
    assert started == 0                 # no Supervisor, no worker
    assert again["status"] == "ok", again
    assert again["result"] == {**first["result"], "cached": True}
    assert cache == {"hits": 1, "misses": 0}


def test_mobility_apply_is_answered_while_a_simulate_runs(tmp_path):
    # one compute thread: the running job must not hold it while its
    # worker process computes, or the apply waits for the whole job
    spec = SystemSpec(n=16, phi=0.2)
    forces = np.random.default_rng(12).standard_normal(3 * SPEC.n)
    operator, _ = build_operator(SPEC)
    want = operator.apply_block(forces.reshape(-1, 1))[:, 0]

    async def scenario(service):
        path = service.settings.socket_path
        _reader, writer = await asyncio.open_unix_connection(
            path, limit=2 ** 25)
        writer.write(encode_message({
            "op": "simulate", "id": "long", "system": spec.to_json(),
            "seed": 6, "steps": 1_000_000}))
        await writer.drain()

        async def running():
            while not service.jobs.active:
                await asyncio.sleep(0.01)
            job, = service.jobs.active.values()
            while job.state == "pending":
                await asyncio.sleep(0.01)
            return job

        job = await asyncio.wait_for(running(), timeout=60.0)
        try:
            assert job.state == "running"
            reply, = await asyncio.wait_for(
                _request(path, _apply("a", forces)), timeout=10.0)
        finally:
            job.cancel()
            writer.close()
        return reply

    reply = _run_service(_settings(tmp_path, compute_threads=1), scenario)
    assert reply["status"] == "ok", reply
    got = decode_array(reply["result"]["velocities"])
    assert got.tobytes() == want.tobytes()


def test_service_sheds_under_oversubscription(tmp_path):
    rng = np.random.default_rng(0)
    max_queue = 4
    n_requests = 16                   # 4x the queue budget

    async def scenario(service):
        path = service.settings.socket_path
        requests = [{"op": "mobility.apply", "id": i,
                     "system": SPEC.to_json(),
                     "forces": encode_array(
                         rng.standard_normal(3 * SPEC.n))}
                    for i in range(n_requests)]
        responses = await _request(path, *requests)
        return responses, service.admission.shed_total, \
            service.batcher.backlog_columns

    settings = _settings(tmp_path, max_batch=2,
                         max_queue_columns=max_queue,
                         max_inflight=n_requests + 1, compute_threads=1)
    responses, shed_total, backlog = _run_service(settings, scenario)
    statuses = [r["status"] for r in responses]
    assert len(responses) == n_requests
    assert statuses.count("shed") >= 1          # load was refused...
    assert statuses.count("ok") >= 1            # ...not the whole burst
    assert shed_total == statuses.count("shed")
    assert backlog == 0
    for response in responses:
        if response["status"] == "shed":
            assert response["retry_after"] > 0
            assert response["reason"] == "queue_full"


def test_oversized_mobility_request_is_an_error_not_a_shed(tmp_path):
    # wider than the whole queue budget: no retry can ever admit it
    forces = np.random.default_rng(2).standard_normal((3 * SPEC.n, 5))

    async def scenario(service):
        loop = asyncio.get_running_loop()
        path = service.settings.socket_path

        def client_work():
            with ServeClient(socket_path=path, max_retries=5) as client:
                with pytest.raises(ServeRequestError) as info:
                    client.mobility_apply(SPEC, forces)
                return info.value

        error = await loop.run_in_executor(None, client_work)
        return error, service.admission.shed_total, service.requests_total

    error, shed_total, requests = _run_service(
        _settings(tmp_path, max_queue_columns=4), scenario)
    assert error.kind == "config" and "max_queue_columns" in str(error)
    assert shed_total == 0 and requests == 1    # answered once, no retry


def test_service_per_client_inflight_cap(tmp_path):
    rng = np.random.default_rng(1)

    async def scenario(service):
        path = service.settings.socket_path
        requests = [{"op": "mobility.apply", "id": i,
                     "system": SPEC.to_json(),
                     "forces": encode_array(
                         rng.standard_normal(3 * SPEC.n))}
                    for i in range(6)]
        return await _request(path, *requests)

    settings = _settings(tmp_path, max_inflight=1, max_batch=2,
                         compute_threads=1)
    responses = _run_service(settings, scenario)
    sheds = [r for r in responses if r["status"] == "shed"]
    assert sheds and all(r["reason"] == "client_inflight"
                         for r in sheds)


def test_service_survives_client_disconnect_mid_request(tmp_path):
    rng = np.random.default_rng(2)
    forces = rng.standard_normal(3 * SPEC.n)

    async def scenario(service):
        path = service.settings.socket_path
        # client 1 fires a request and vanishes without reading
        await _request(path, {"op": "mobility.apply", "id": 1,
                              "system": SPEC.to_json(),
                              "forces": encode_array(forces)},
                       keep_reading=False)
        # client 2 (and the server) must be unaffected
        response, = await _request(path, {
            "op": "mobility.apply", "id": 2,
            "system": SPEC.to_json(),
            "forces": encode_array(forces)})
        return response

    response = _run_service(_settings(tmp_path), scenario)
    assert response["status"] == "ok"


def test_service_cancels_abandoned_simulate(tmp_path):
    spec = SystemSpec(n=16, phi=0.2, lambda_rpy=4)

    async def scenario(service):
        path = service.settings.socket_path
        reader, writer = await asyncio.open_unix_connection(
            path, limit=2 ** 25)
        writer.write(encode_message({
            "op": "simulate", "id": "gone", "system": spec.to_json(),
            "seed": 9, "steps": 400}))
        await writer.drain()
        # wait for the job to actually start, then vanish
        for _ in range(200):
            if service.jobs.active:
                break
            await asyncio.sleep(0.05)
        assert service.jobs.active, "job never started"
        writer.close()
        job = next(iter(service.jobs.active.values()))
        for _ in range(600):
            if job.cancelled and not service.jobs.active:
                break
            await asyncio.sleep(0.05)
        return job.cancelled, dict(service.jobs.active), job.state

    cancelled, active, state = _run_service(_settings(tmp_path), scenario)
    assert cancelled                  # disconnect triggered the drain
    assert not active                 # and the job was retired
    assert state in ("drained", "done")


def _slow_task_spec(monkeypatch, seconds: float) -> None:
    """Hold every job in its ``pending`` phase for ``seconds``."""
    from repro.serve import jobs as jobs_mod
    real = jobs_mod.task_spec_for

    def slow(spec, seed, steps):
        time.sleep(seconds)
        return real(spec, seed, steps)

    monkeypatch.setattr(jobs_mod, "task_spec_for", slow)


def test_service_drops_simulate_abandoned_inside_launch(tmp_path,
                                                        monkeypatch):
    # the connection goes away from inside launch(), i.e. before the
    # job is registered on it and while the job is still pending: the
    # disconnect cleanup must still find and cancel it
    spec = SystemSpec(n=16, phi=0.2, lambda_rpy=4)
    _slow_task_spec(monkeypatch, 0.3)

    async def scenario(service):
        real_launch = service.jobs.launch
        launched = []

        def launch(key, spec, seed, steps):
            writer.close()
            launched.append(real_launch(key, spec, seed, steps))
            return launched[0]

        service.jobs.launch = launch
        reader, writer = await asyncio.open_unix_connection(
            service.settings.socket_path, limit=2 ** 25)
        writer.write(encode_message({
            "op": "simulate", "id": "gone", "system": spec.to_json(),
            "seed": 9, "steps": 400}))
        await writer.drain()
        for _ in range(600):
            if launched and not service.jobs.active:
                break
            await asyncio.sleep(0.05)
        return launched, dict(service.jobs.active)

    (job,), active = _run_service(_settings(tmp_path), scenario)
    assert job.cancelled and not active
    assert job.state == "drained"     # cancelled while pending: no steps


def test_service_joiner_survives_launcher_disconnect(tmp_path, monkeypatch):
    # B joins A's job while it is still pending (inside its launch);
    # A disconnects.  The job must keep running for B.
    spec = SystemSpec(n=16, phi=0.2, lambda_rpy=4)
    _slow_task_spec(monkeypatch, 0.5)

    async def scenario(service):
        path = service.settings.socket_path
        request = {"op": "simulate", "system": spec.to_json(),
                   "seed": 3, "steps": 8}
        reader, writer = await asyncio.open_unix_connection(
            path, limit=2 ** 25)
        writer.write(encode_message({**request, "id": "a"}))
        await writer.drain()
        while not service.jobs.active:
            await asyncio.sleep(0.01)
        job, = service.jobs.active.values()
        second = asyncio.ensure_future(
            _request(path, {**request, "id": "b"}))
        while job.subscribers < 2:
            await asyncio.sleep(0.01)
        assert job.state == "pending"
        writer.close()                          # A goes away
        response, = await asyncio.wait_for(second, timeout=60.0)
        return response, job.cancelled, service.jobs.started

    response, cancelled, started = _run_service(_settings(tmp_path),
                                                scenario)
    assert response["status"] == "ok", response
    assert response["result"]["state"] == "done"
    assert started == 1 and not cancelled


def test_service_stats_and_latency_quantiles(tmp_path):
    rng = np.random.default_rng(4)

    async def scenario(service):
        path = service.settings.socket_path
        for i in range(3):
            await _request(path, {
                "op": "mobility.apply", "id": i,
                "system": SPEC.to_json(),
                "forces": encode_array(
                    rng.standard_normal(3 * SPEC.n))})
        stats, = await _request(path, {"op": "stats", "id": "s"})
        return stats["result"]

    stats = _run_service(_settings(tmp_path), scenario)
    latency = stats["latency"]["mobility.apply"]
    assert latency["count"] == 3
    assert 0 < latency["p50_s"] <= latency["p90_s"] <= latency["p99_s"]
    assert stats["batcher"]["requests_batched"] == 3
    assert stats["operators"]["resident"] == 1
    assert stats["cache"]["misses"] == 0        # simulate results only


def test_latency_quantiles_track_a_skewed_sample():
    from repro.obs.metrics import Histogram
    from repro.serve.service import _LATENCY_BUCKETS

    steps = [b / a for a, b in zip(_LATENCY_BUCKETS, _LATENCY_BUCKETS[1:])]
    assert max(steps) <= 1.5 + 1e-12
    assert _LATENCY_BUCKETS[0] <= 1e-4 and _LATENCY_BUCKETS[-1] >= 30.0
    # closed-loop request latencies: a bulk near 3.6 ms, a tail to 9.5
    rng = np.random.default_rng(0)
    sample = np.concatenate([rng.normal(3.6e-3, 0.2e-3, 900),
                             rng.uniform(5e-3, 9.5e-3, 100)])
    histogram = Histogram(buckets=_LATENCY_BUCKETS)
    for value in sample:
        histogram.observe(value)
    want = float(np.median(sample))
    assert abs(histogram.quantile(0.5) - want) <= 0.1 * want


# ----------------------------------------------------------------------
# flush rule: once every open connection waits in a batch, it flushes
# ----------------------------------------------------------------------

#: max_wait of the flush-rule tests: a minute, so the timer answers none
NEVER = 60.0


async def _open(path: str):
    """A connection the server has registered (its ping was answered)."""
    reader, writer = await asyncio.open_unix_connection(
        path, limit=2 ** 25)
    writer.write(encode_message({"op": "ping", "id": "hello"}))
    await writer.drain()
    assert json.loads(await reader.readline())["status"] == "ok"
    return reader, writer


async def _replies(reader, count: int) -> list[dict]:
    async def read():
        return [json.loads(await reader.readline()) for _ in range(count)]

    return await asyncio.wait_for(read(), timeout=30.0)


def _apply(request_id, forces, spec: SystemSpec = SPEC) -> dict:
    return {"op": "mobility.apply", "id": request_id,
            "system": spec.to_json(), "forces": encode_array(forces)}


@pytest.mark.parametrize("specs, batches", [
    ((SPEC, SPEC), 1),
    # a connection waiting in another system's window cannot join
    # this one either: both windows flush
    ((SPEC, SystemSpec(n=18, phi=0.2)), 2),
])
def test_batch_flushes_once_every_connection_has_sent(tmp_path, specs,
                                                      batches):
    rng = np.random.default_rng(20)

    async def scenario(service):
        conns = [await _open(service.settings.socket_path)
                 for _ in specs]
        for i, ((_, writer), spec) in enumerate(zip(conns, specs)):
            writer.write(encode_message(
                _apply(i, rng.standard_normal(3 * spec.n), spec)))
            await writer.drain()
        replies = [await _replies(reader, 1) for reader, _ in conns]
        for _, writer in conns:
            writer.close()
        return replies, service.batcher.stats()

    replies, stats = _run_service(_settings(tmp_path, max_wait=NEVER),
                                  scenario)
    assert [r["status"] for (r,) in replies] == ["ok", "ok"]
    assert stats["batches_flushed"] == batches
    assert stats["requests_batched"] == 2


def test_pipelined_requests_of_one_connection_share_one_batch(tmp_path):
    rng = np.random.default_rng(21)

    async def scenario(service):
        reader, writer = await _open(service.settings.socket_path)
        writer.write(b"".join(
            encode_message(_apply(i, rng.standard_normal(3 * SPEC.n)))
            for i in range(5)))
        await writer.drain()
        replies = await _replies(reader, 5)
        writer.close()
        return replies, service.batcher.stats()

    replies, stats = _run_service(
        _settings(tmp_path, max_wait=NEVER, max_batch=16), scenario)
    assert all(r["status"] == "ok" for r in replies)
    # decided at the end of the loop turn, not per submit
    assert stats["batches_flushed"] == 1 and stats["requests_batched"] == 5


def test_silent_connection_holds_the_batch_until_it_leaves(tmp_path):
    rng = np.random.default_rng(22)

    async def scenario(service):
        conns = [await _open(service.settings.socket_path)
                 for _ in range(3)]
        for i, (_, writer) in enumerate(conns[:2]):
            writer.write(encode_message(
                _apply(i, rng.standard_normal(3 * SPEC.n))))
            await writer.drain()

        async def queued():
            while service.batcher.requests_batched < 2:
                await asyncio.sleep(0.01)

        await asyncio.wait_for(queued(), timeout=30.0)
        await asyncio.sleep(0.2)
        held = service.batcher.batches_flushed
        conns[2][1].close()                 # the silent one goes away
        replies = [await _replies(reader, 1) for reader, _ in conns[:2]]
        for _, writer in conns[:2]:
            writer.close()
        return held, replies, service.batcher.batches_flushed

    held, replies, flushed = _run_service(
        _settings(tmp_path, max_wait=NEVER), scenario)
    assert held == 0                        # it could still have sent
    assert [r["status"] for (r,) in replies] == ["ok", "ok"]
    assert flushed == 1


def test_identical_requests_from_two_connections_form_one_batch(tmp_path):
    forces = np.random.default_rng(23).standard_normal(3 * SPEC.n)
    operator, _ = build_operator(SPEC)
    want = operator.apply_block(forces.reshape(-1, 1))[:, 0]

    async def scenario(service):
        conns = [await _open(service.settings.socket_path)
                 for _ in range(2)]
        for i, (_, writer) in enumerate(conns):
            writer.write(encode_message(_apply(i, forces)))
            await writer.drain()
        replies = [await _replies(reader, 1) for reader, _ in conns]
        for _, writer in conns:
            writer.close()
        return replies, service.batcher.stats()

    replies, stats = _run_service(
        _settings(tmp_path, max_wait=NEVER), scenario)
    # both requests reached the batcher; once both connections waited
    # in the window, it flushed as one apply
    assert stats["requests_batched"] == 2
    assert stats["batches_flushed"] == 1
    for (reply,) in replies:
        assert decode_array(
            reply["result"]["velocities"]).tobytes() == want.tobytes()


def test_stop_with_a_connected_client_leaves_no_handler_behind(tmp_path):
    reported: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: reported.append(context))
        service = SimulationService(_settings(tmp_path))
        await service.start()
        _reader, writer = await _open(service.settings.socket_path)
        await service.stop()                # the client is still there
        writer.close()

    asyncio.run(main())
    assert reported == []


def test_keys_follow_the_kernel_mode_that_runs(tmp_path, monkeypatch,
                                               set_kernel_mode):
    # a process whose kernels did not load (no compiler on PATH) computes
    # the fallback bytes, so it keys batches and job directories as the
    # REPRO_NO_CKERNEL knob does; the service resolves the mode at start,
    # on a compute thread, and reports it in ping
    from repro.sparse import kernels

    spec = SystemSpec(n=200)
    set_kernel_mode(True)
    knob = (spec.operator_key(), spec.fingerprint())
    set_kernel_mode(False)
    loaded_on = []
    monkeypatch.setattr(kernels, "_compiler", lambda: loaded_on.append(
        threading.current_thread().name))
    kernels.reset_kernel_cache()

    async def scenario(service):
        assert len(loaded_on) == 1       # start() resolved it, once
        return await _request(service.settings.socket_path,
                              {"op": "ping", "id": 1})

    (pong,) = _run_service(_settings(tmp_path), scenario)
    assert loaded_on[0].startswith("repro-exec")
    assert pong["result"]["fingerprint_knobs"] == {"no_ckernel": True}
    assert (spec.operator_key(), spec.fingerprint()) == knob
    assert len(loaded_on) == 1


def test_serve_client_roundtrip_and_retry(tmp_path):
    """The sync client library against the real server, in a thread."""
    rng = np.random.default_rng(5)
    forces = rng.standard_normal(3 * SPEC.n)
    operator, _ = build_operator(SPEC)
    want = operator.apply_block(forces.reshape(-1, 1))[:, 0]

    async def scenario(service):
        loop = asyncio.get_running_loop()
        path = service.settings.socket_path

        def client_work():
            with ServeClient(socket_path=path, max_retries=8) as client:
                assert client.ping()["protocol"] == "repro-serve/1"
                velocities = client.mobility_apply(SPEC, forces)
                progress = []
                result = client.simulate(
                    SystemSpec(n=16, lambda_rpy=4), steps=8, seed=2,
                    on_progress=lambda step, of: progress.append(step))
                return velocities, result, progress

        return await loop.run_in_executor(None, client_work)

    velocities, result, progress = _run_service(
        _settings(tmp_path), scenario)
    assert velocities.tobytes() == want.tobytes()
    assert result["state"] == "done" and result["digest"]
    assert progress and progress[-1] == 8
