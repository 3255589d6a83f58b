"""The serve front door: asyncio JSON-lines server over a local socket.

One :class:`SimulationService` owns the whole serving stack:

* an :class:`~repro.exec.ExecutionContext` thread pool that runs all
  CPU-bound work (operator builds, batched applies) off the event
  loop — the loop itself only parses, schedules and writes, so slow
  physics never blocks accepting connections (lint rule RPR012 keeps
  it that way);
* the :class:`~repro.serve.batching.MobilityBatcher` +
  :class:`~repro.serve.batching.OperatorPool` coalescing short
  ``mobility.apply`` requests into block applies;
* the :class:`~repro.serve.jobs.JobManager` dispatching ``simulate``
  requests to Supervisor campaigns with progress streaming;
* the :class:`~repro.serve.admission.AdmissionController` shedding
  load before anything is queued;
* the :class:`~repro.serve.cache.ResultCache` +
  :class:`~repro.serve.cache.SingleFlight` making repeated and
  concurrent identical requests cost one computation.

Every request runs under an :mod:`repro.obs` span carrying a trace id
(``<client>-<request id>``), increments
``serve_requests_total{op, outcome}`` and lands in the per-op latency
histogram whose p50/p90/p99 the ``stats`` op reports.

The server listens on a Unix socket (``socket_path``) or a local TCP
port; :meth:`SimulationService.run_forever` wires SIGTERM/SIGINT to a
graceful stop through :class:`~repro.runtime.signals.GracefulShutdown`
(nest-safe: inner ensemble drains stack under the serve loop's
handler).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from dataclasses import asdict, dataclass, field
from typing import Any

from .. import obs
from ..config import get_config
from ..errors import ConfigurationError
from ..exec import ExecutionContext
from ..resilience import classify_exception
from ..runtime.signals import GracefulShutdown
from .admission import AdmissionController
from .batching import MobilityBatcher, OperatorPool
from .cache import ResultCache, SingleFlight
from .jobs import JobManager
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    SystemSpec,
    decode_array,
    decode_line,
    encode_array,
    encode_message,
    error_response,
    ok_response,
    shed_response,
    validate_request,
)

__all__ = ["ServeSettings", "SimulationService"]

#: Latency buckets (seconds): a x1.5 ladder from 100 us past 30 s.  The
#: ``stats`` quantiles interpolate linearly inside a bucket, so the
#: step bounds their error on a skewed sample.
_LATENCY_BUCKETS = tuple(1e-4 * 1.5 ** k for k in range(33))

#: Hard cap on simulate steps per request (a served campaign is a
#: bounded job, not an open-ended run).
MAX_STEPS = 1_000_000


@dataclass
class ServeSettings:
    """Tunable knobs of one service instance."""

    socket_path: str | None = None
    host: str = "127.0.0.1"
    port: int = 0                 # 0: ephemeral, reported by endpoint()
    max_batch: int = 8
    #: Longest a mobility batch waits for a connection that has not
    #: sent; once every open connection is waiting in a batch, the
    #: batches flush at once.
    max_wait: float = 2e-3
    max_queue_columns: int = 64
    max_inflight: int = 8
    max_jobs: int = 2
    max_systems: int = 8
    compute_threads: int = 0      # 0: RuntimeConfig resolved count
    cache_entries: int = 256
    cache_ttl: float | None = 600.0
    work_dir: str = "serve-jobs"
    progress_poll: float = 0.05

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class _ClientState:
    """Per-connection bookkeeping."""

    client_id: int
    writer: asyncio.StreamWriter
    #: The ``_handle_client`` task; :meth:`SimulationService.stop`
    #: awaits it so no handler outlives the service.
    handler: asyncio.Task | None = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    inflight: int = 0
    closed: bool = False
    #: request id -> (job, progress queue, forwarder task)
    jobs: dict[str, tuple[Any, asyncio.Queue, asyncio.Task]] = field(
        default_factory=dict)
    tasks: set = field(default_factory=set)


class SimulationService:
    """The serving stack behind one listening socket."""

    def __init__(self, settings: ServeSettings | None = None):
        self.settings = settings or ServeSettings()
        s = self.settings
        workers = (s.compute_threads if s.compute_threads > 0
                   else get_config().resolved_workers())
        # RPR011: the thread pool is owned by an ExecutionContext
        self._context = ExecutionContext("threads", workers=workers)
        self._executor = self._context.thread_pool()
        self.pool = OperatorPool(self._executor,
                                 max_systems=s.max_systems)
        self.batcher = MobilityBatcher(self.pool, self._executor,
                                       max_batch=s.max_batch,
                                       max_wait=s.max_wait)
        self.admission = AdmissionController(
            max_queue_columns=s.max_queue_columns,
            max_inflight=s.max_inflight, max_jobs=s.max_jobs)
        self.cache = ResultCache(max_entries=s.cache_entries,
                                 ttl=s.cache_ttl)
        self.flight = SingleFlight()
        #: mobility result key -> connections waiting on its answer
        self._mobility_waiters: dict[str, set[int]] = {}
        self.jobs = JobManager(s.work_dir, self._executor,
                               max_jobs=s.max_jobs,
                               progress_poll=s.progress_poll)
        os.makedirs(s.work_dir, exist_ok=True)
        self._server: asyncio.AbstractServer | None = None
        self._clients: dict[int, _ClientState] = {}
        self._next_client = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._background: set = set()
        self._installed_metrics = False
        self.requests_total = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        if obs.get_metrics() is None:
            # stats/latency quantiles need a registry even when the
            # caller did not enable observability
            obs.set_metrics(obs.MetricsRegistry())
            self._installed_metrics = True
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self.settings.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.settings.socket_path,
                limit=MAX_LINE_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.settings.host,
                port=self.settings.port, limit=MAX_LINE_BYTES)

    def endpoint(self) -> dict[str, Any]:
        """Where the server is reachable (resolved ephemeral port)."""
        if self._server is None:
            raise ConfigurationError("service is not started")
        if self.settings.socket_path is not None:
            return {"socket_path": self.settings.socket_path}
        address = self._server.sockets[0].getsockname()
        return {"host": address[0], "port": address[1]}

    async def stop(self) -> None:
        """Stop accepting, drain batches and jobs, close connections,
        release pools."""
        if self._server is not None:
            self._server.close()
        await self.batcher.drain()
        await self.jobs.drain_all()
        if self._background:
            await asyncio.gather(*list(self._background),
                                 return_exceptions=True)
        # close every transport and wait for its handler to see EOF:
        # a handler still pending when the loop shuts down is cancelled
        # there, and asyncio reports that as an unhandled exception
        handlers = [state.handler for state in self._clients.values()
                    if state.handler is not None]
        for state in list(self._clients.values()):
            state.closed = True
            with contextlib.suppress(OSError):
                state.writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)
        self._clients.clear()
        if self._server is not None:
            # after the connections: on Python >= 3.12 this waits for them
            await self._server.wait_closed()
            self._server = None
        self._context.close()
        if self._installed_metrics:
            obs.set_metrics(None)
            self._installed_metrics = False

    def request_stop(self) -> None:
        """Ask the serve loop to exit (signal/thread safe)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    async def serve_until_stopped(self) -> None:
        """Start, run until :meth:`request_stop`, then stop."""
        await self.start()
        stop_event = self._stop_event
        if stop_event is None:  # pragma: no cover - start() always sets it
            raise ConfigurationError("service failed to start")
        await stop_event.wait()
        await self.stop()

    def run_forever(self) -> None:
        """Blocking entry point with signal-driven graceful stop."""
        with GracefulShutdown(
                on_signal=lambda _name: self.request_stop()):
            asyncio.run(self.serve_until_stopped())

    # -- connection handling ---------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._next_client += 1
        state = _ClientState(client_id=self._next_client, writer=writer,
                             handler=asyncio.current_task())
        self._clients[state.client_id] = state
        self.batcher.connect(state.client_id)
        obs.set_gauge("serve_clients", len(self._clients))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(state, error_response(
                        {}, "config", "line exceeds protocol limit"))
                    break
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(state, line))
                state.tasks.add(task)
                task.add_done_callback(state.tasks.discard)
        finally:
            state.closed = True
            self._clients.pop(state.client_id, None)
            obs.set_gauge("serve_clients", len(self._clients))
            self._abandon_jobs(state)
            for task in list(state.tasks):
                task.cancel()       # nobody is left to answer
            self.batcher.disconnect(state.client_id)
            with contextlib.suppress(OSError):
                writer.close()

    def _abandon_jobs(self, state: _ClientState) -> None:
        """Disconnect cleanup: drain jobs nobody is watching anymore."""
        for job, queue, forwarder in state.jobs.values():
            forwarder.cancel()
            job.unsubscribe(queue)
            if job.subscribers == 0 and job.state in ("pending", "running"):
                obs.inc("serve_jobs_abandoned_total")
                job.cancel()
        state.jobs.clear()

    async def _send(self, state: _ClientState,
                    message: dict[str, Any]) -> bool:
        """Write one line; returns False once the peer is gone."""
        if state.closed:
            return False
        try:
            async with state.lock:
                state.writer.write(encode_message(message))
                await state.writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            state.closed = True
            return False

    # -- request dispatch ------------------------------------------------

    async def _dispatch(self, state: _ClientState, line: bytes) -> None:
        from ..utils.timing import now

        t0 = now()
        self.requests_total += 1
        try:
            message = decode_line(line)
            op = validate_request(message)
        except ProtocolError as exc:
            self._finish(None, "protocol_error", t0)
            await self._send(state, error_response(
                {"id": None}, "config", str(exc)))
            return
        trace_id = f"c{state.client_id}-{message['id']}"
        outcome = "error"
        state.inflight += 1
        try:
            with obs.span("serve.request", op=op, trace_id=trace_id,
                          client=state.client_id):
                response, outcome = await self._answer(state, message, op)
            await self._send(state, response)
        except ProtocolError as exc:
            outcome = "invalid"
            await self._send(state, error_response(
                message, "config", str(exc)))
        except Exception as exc:  # noqa: RPR006 - protocol boundary:
            # the classified failure *is* the error response; raising
            # would tear down the connection for the other requests
            kind = classify_exception(exc)
            outcome = "error"
            await self._send(state, error_response(
                message, kind.value, str(exc)))
        finally:
            state.inflight -= 1
            self._finish(op, outcome, t0)

    def _finish(self, op: str | None, outcome: str, t0: float) -> None:
        from ..utils.timing import now

        obs.inc("serve_requests_total", op=op or "invalid",
                outcome=outcome)
        registry = obs.get_metrics()
        if registry is not None and op is not None:
            registry.histogram(
                "serve_request_seconds",
                help="request latency by op",
                buckets=_LATENCY_BUCKETS, op=op).observe(now() - t0)

    async def _answer(self, state: _ClientState,
                      message: dict[str, Any],
                      op: str) -> tuple[dict[str, Any], str]:
        """Compute the (response, outcome) of one admitted request."""
        if op == "ping":
            return ok_response(message, {
                "protocol": PROTOCOL, "settings": self.settings.to_json(),
                "fingerprint_knobs": {
                    "no_ckernel": get_config().no_ckernel}}), "ok"
        if op == "stats":
            return ok_response(message, self.stats()), "ok"
        shed = self.admission.check_inflight(state.inflight - 1)
        if shed is not None:
            return shed_response(message, shed.reason,
                                 shed.retry_after), "shed"
        if op == "mobility.apply":
            return await self._answer_mobility(state, message)
        if op == "simulate":
            return await self._answer_simulate(state, message)
        if op == "cancel":
            return self._answer_cancel(state, message)
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    # -- mobility.apply --------------------------------------------------

    async def _answer_mobility(self, state: _ClientState,
                               message: dict[str, Any]
                               ) -> tuple[dict[str, Any], str]:
        import hashlib

        spec = SystemSpec.from_json(message.get("system"))
        forces = decode_array(message.get("forces"), "forces")
        flat = forces.ndim == 1
        if flat:
            forces = forces.reshape(-1, 1)
        if forces.ndim != 2 or forces.shape[0] != 3 * spec.n:
            raise ProtocolError(
                f"forces must have shape (3n,) or (3n, s) with "
                f"n={spec.n}, got {forces.shape}")
        columns = forces.shape[1]
        shed = self.admission.check_mobility(
            columns, self.batcher.backlog_columns)
        if shed is not None:
            return shed_response(message, shed.reason,
                                 shed.retry_after), "shed"
        fingerprint = spec.fingerprint()
        force_digest = hashlib.sha256(
            forces.tobytes()).hexdigest()[:32]
        key = f"mob:{fingerprint}:{force_digest}"
        cached = self.cache.get(key)
        if cached is not None:
            return ok_response(message, {**cached, "cached": True}), "ok"

        # the connections waiting on this key: whoever computes it hands
        # the set to the batcher, so a joiner counts as waiting in the
        # window that holds the computing request
        waiters = self._mobility_waiters.setdefault(key, set())
        waiters.add(state.client_id)
        if len(waiters) > 1:
            self.batcher.recheck()      # a joiner: the request is queued

        async def compute() -> dict[str, Any]:
            velocities = await self.batcher.submit(spec, forces, waiters)
            result = {
                "velocities": encode_array(
                    velocities[:, 0] if flat else velocities),
                "fingerprint": fingerprint}
            self.cache.put(key, result)
            return result

        try:
            result = await self.flight.run(key, compute)
        finally:
            waiters.discard(state.client_id)
            if not waiters and self._mobility_waiters.get(key) is waiters:
                del self._mobility_waiters[key]
        return ok_response(message, {**result, "cached": False}), "ok"

    # -- simulate --------------------------------------------------------

    async def _answer_simulate(self, state: _ClientState,
                               message: dict[str, Any]
                               ) -> tuple[dict[str, Any], str]:
        spec = SystemSpec.from_json(message.get("system"))
        try:
            seed = int(message.get("seed", 0))
            steps = int(message["steps"])
        except (KeyError, TypeError, ValueError):
            raise ProtocolError(
                "simulate needs integer 'steps' (and optional 'seed')"
            ) from None
        if not 1 <= steps <= MAX_STEPS:
            raise ProtocolError(
                f"steps must be in [1, {MAX_STEPS}], got {steps}")
        key = f"sim:{spec.fingerprint()}:{seed}:{steps}"
        cached = self.cache.get(key)
        if cached is not None:
            return ok_response(message, {**cached, "cached": True}), "ok"
        job = self.jobs.get(key)
        if job is None:
            shed = self.admission.check_simulate(len(self.jobs.active))
            if shed is not None:
                return shed_response(message, shed.reason,
                                     shed.retry_after), "shed"
            job = self.jobs.launch(key, spec, seed, steps)
            finalizer = asyncio.get_running_loop().create_task(
                self._finalize_job(key, job))
            self._background.add(finalizer)
            finalizer.add_done_callback(self._background.discard)
        queue = job.subscribe()
        request_id = str(message["id"])
        forwarder = asyncio.get_running_loop().create_task(
            self._forward_events(state, message, queue))
        state.jobs[request_id] = (job, queue, forwarder)
        try:
            result = await job.wait()
        finally:
            forwarder.cancel()
            job.unsubscribe(queue)
            state.jobs.pop(request_id, None)
        if result["state"] == "failed":
            return error_response(message, str(result.get("kind")),
                                  str(result.get("message"))), "error"
        return ok_response(message, {**result, "cached": False}), "ok"

    async def _finalize_job(self, key: str, job: Any) -> None:
        """Cache and retire a job independently of its subscribers."""
        result = await job.wait()
        if result["state"] == "done":
            self.cache.put(key, result)
        self.jobs.finish(key)

    async def _forward_events(self, state: _ClientState,
                              message: dict[str, Any],
                              queue: asyncio.Queue) -> None:
        while True:
            event = await queue.get()
            if event.get("event") == "end":
                return
            sent = await self._send(state, {
                "id": message.get("id"), "op": message.get("op"),
                **event})
            if not sent:
                return

    def _answer_cancel(self, state: _ClientState,
                       message: dict[str, Any]
                       ) -> tuple[dict[str, Any], str]:
        target = message.get("target")
        if target is None:
            raise ProtocolError("cancel needs 'target' (a request id)")
        entry = state.jobs.get(str(target))
        if entry is None:
            # the issuing connection is usually *blocked* in its own
            # simulate request, so cancels arrive on a second
            # connection; the socket is local and trusted
            for other in self._clients.values():
                entry = other.jobs.get(str(target))
                if entry is not None:
                    break
        if entry is None:
            raise ProtocolError(
                f"no running simulate request {target!r}")
        job = entry[0]
        job.cancel()
        return ok_response(message, {
            "cancelling": True, "state": job.state,
            "completed_step": job.to_json()["completed_step"]}), "ok"

    # -- stats -----------------------------------------------------------

    def _latency_stats(self) -> dict[str, Any]:
        registry = obs.get_metrics()
        if registry is None:
            return {}
        family = registry._families.get("serve_request_seconds")
        if family is None:
            return {}
        out: dict[str, Any] = {}
        for labels, histogram in family.series.items():
            op = dict(labels).get("op", "?")
            out[op] = {
                "count": histogram.count,
                "mean_s": histogram.mean,
                "p50_s": histogram.quantile(0.5),
                "p90_s": histogram.quantile(0.9),
                "p99_s": histogram.quantile(0.99)}
        return out

    def stats(self) -> dict[str, Any]:
        """The ``stats`` op payload (also useful in-process)."""
        return {"protocol": PROTOCOL,
                "requests_total": self.requests_total,
                "clients": len(self._clients),
                "batcher": self.batcher.stats(),
                "operators": self.pool.stats(),
                "admission": self.admission.stats(),
                "cache": self.cache.to_json(),
                "single_flight": {"active": self.flight.active(),
                                  "joined": self.flight.joined},
                "jobs": self.jobs.stats(),
                "latency": self._latency_stats()}
