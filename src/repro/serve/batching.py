"""Cross-request batching: coalesce mobility applies into ``apply_block``.

The paper's Section IV.E observation — the reciprocal-space pipeline
is most efficient applied to *blocks* of vectors — is exploited inside
one process by :meth:`~repro.pme.operator.PMEOperator.apply_block`.
This module extends the same economics *across clients*: many
small ``mobility.apply`` requests against the same system are merged
into one block apply, so the spread product, the stacked FFTs, the
influence pass and the BCSR SpMM are all amortized over
requests that arrived independently.

Correctness rests on one property: below ``apply_block`` the block
width is an operand, never a code path — every stage sums a column in
an order that does not depend on what it is batched with — so slicing
a request's columns out of a batched result equals applying that
request alone, byte for byte (``tests/test_width_invariance.py``: every
width 1..33, both kernel modes).  Batching changes *latency*, never *bytes*.

Scheduling is microbatching that knows who could still send:

* the first request for an operator key opens a window and arms a
  ``max_wait`` timer;
* requests arriving inside the window join the batch;
* the batch flushes at the first of three events: its column count
  reaches ``max_batch``; the timer fires; or **every open connection
  is waiting on a request in an open window** (of any system: a
  connection waiting in another system's window cannot send into this
  one either) — then nobody is left to join, and waiting would add
  latency and no company; every open window flushes.  The service
  reports connections opening and closing
  (:meth:`MobilityBatcher.connect` / :meth:`~MobilityBatcher.disconnect`)
  and which connection submitted each request.  ``max_wait`` is
  therefore the longest a batch waits for a connection that has not
  sent;
* the third test is decided once per event-loop turn (``call_soon``),
  after every request line already read has been submitted — decided
  inline in :meth:`~MobilityBatcher.submit`, it would split one
  connection's pipelined requests into one batch each.  A disconnect
  re-decides, so a window waiting only for the departing connection
  flushes at once;
* per-operator applies are serialized (an :class:`asyncio.Lock` per
  entry) because the shared :class:`~repro.pme.cache.MobilityCache`
  workspaces are scratch — two concurrent applies on one operator
  would race on them.  Distinct systems run concurrently.

Every request is computed: the service hands each admitted request
straight to :meth:`MobilityBatcher.submit`, with no result cache or
request deduplication in front of it (the repository's clients send
fresh forces with every request, so neither would ever hit).

The :class:`OperatorPool` keeps one built operator (plus its
:class:`~repro.pme.cache.MobilityCache`) per
:meth:`~repro.serve.protocol.SystemSpec.operator_key`, LRU-bounded at
:data:`MAX_SYSTEMS`; a build in flight is one task per key that every
acquire of the key awaits, so a burst of first requests builds each
operator once, and a failed build is retried by the next acquire.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..resilience import classify_exception
from ..utils.timing import now
from .protocol import ProtocolError, SystemSpec

__all__ = ["OperatorPool", "MobilityBatcher", "build_operator"]

#: Histogram buckets for batch occupancy (columns per flushed apply).
_OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Histogram buckets for in-queue wait (seconds).
_WAIT_BUCKETS = (1e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1.0)

#: Built operators the pool keeps resident (least recently used go).
MAX_SYSTEMS = 8


def build_operator(spec: SystemSpec):
    """Deterministically build the PME operator of a system spec.

    This is *the* definition of what a served ``mobility.apply``
    answers: the same construction a direct caller would write by
    hand.  Runs in a worker thread (CPU-bound).
    """
    from ..pme.cache import MobilityCache
    from ..pme.operator import PMEOperator
    from ..pme.tuning import tune_parameters
    from ..systems.suspension import make_suspension

    suspension = make_suspension(spec.n, spec.phi, seed=spec.system_seed)
    params = tune_parameters(
        suspension.n, suspension.box, target_ep=spec.e_p, p=spec.p,
        fluid=suspension.fluid)
    cache = MobilityCache()
    operator = PMEOperator(suspension.positions, suspension.box, params,
                           fluid=suspension.fluid, cache=cache)
    return operator, cache


@dataclass
class OperatorEntry:
    """One resident operator and its batching state."""

    key: str
    operator: Any
    cache: Any
    #: Serializes applies — MobilityCache workspaces are shared scratch.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Applies currently holding (or waiting on) the lock; an entry
    #: with ``busy > 0`` is never evicted.
    busy: int = 0
    applies: int = 0
    columns_served: int = 0


class OperatorPool:
    """LRU pool of built operators, keyed by operator fingerprint."""

    def __init__(self, executor):
        self._executor = executor
        self._entries: "OrderedDict[str, OperatorEntry]" = OrderedDict()
        #: Builds in flight by key; each drops out once it finishes.
        self._building: dict[str, asyncio.Task] = {}
        self.builds = 0

    def __len__(self) -> int:
        return len(self._entries)

    async def acquire(self, key: str, spec: SystemSpec) -> OperatorEntry:
        """The resident entry for ``key``, building it on first use."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        build = self._building.get(key)
        if build is None:
            build = asyncio.get_running_loop().create_task(
                self._build(key, spec))
            self._building[key] = build
            build.add_done_callback(
                lambda done: self._built(key, done))
        # shielded: a cancelled caller does not cancel the others' build
        return await asyncio.shield(build)

    async def _build(self, key: str, spec: SystemSpec) -> OperatorEntry:
        loop = asyncio.get_running_loop()
        with obs.span("serve.build_operator", n=spec.n,
                      fingerprint=key[:12]):
            operator, cache = await loop.run_in_executor(
                self._executor, build_operator, spec)
        self.builds += 1
        built = OperatorEntry(key=key, operator=operator, cache=cache)
        self._entries[key] = built
        self._evict()
        return built

    def _built(self, key: str, build: asyncio.Task) -> None:
        """Drop a finished build, so a failed one is retried."""
        del self._building[key]
        if not build.cancelled():
            # its awaiters re-raise a failure; retrieving it here keeps
            # one nobody awaited from being logged as never retrieved
            build.exception()

    def _evict(self) -> None:
        """Drop least-recently-used idle entries beyond the bound."""
        while len(self._entries) > MAX_SYSTEMS:
            victim = next((k for k, e in self._entries.items()
                           if e.busy == 0), None)
            if victim is None:
                return  # everything busy: allow temporary overshoot
            del self._entries[victim]

    def stats(self) -> dict[str, Any]:
        return {"resident": len(self._entries),
                "max_systems": MAX_SYSTEMS, "builds": self.builds,
                "systems": [
                    {"fingerprint": e.key[:12], "n": e.operator.n,
                     "applies": e.applies,
                     "columns_served": e.columns_served,
                     "mobility_cache": e.cache.stats()}
                    for e in self._entries.values()]}


@dataclass
class _Item:
    """One queued mobility request (its columns + completion future)."""

    spec: SystemSpec
    forces: np.ndarray           # (3n, s), validated
    future: asyncio.Future
    enqueued_at: float
    #: The submitting connection (``None`` for in-process callers).
    client: Hashable | None


@dataclass
class _Window:
    """The open batch window of one operator key."""

    items: list[_Item] = field(default_factory=list)
    columns: int = 0
    timer: Any = None


class MobilityBatcher:
    """Microbatching scheduler: a window closes when it is full, when
    ``max_wait`` has passed, or when every open connection is waiting
    on a request in an open window (see the module docstring).

    With no connection registered the third rule holds vacuously, so
    in-process callers get one batch per event-loop turn.

    Parameters
    ----------
    pool:
        Operator pool the batches are applied against.
    executor:
        Thread pool (from an :class:`~repro.exec.ExecutionContext`)
        running the CPU-bound applies off the event loop.
    max_batch:
        Column count that flushes a window immediately.
    max_wait:
        Seconds a window waits for a connection that has not sent
        (``0``: every request flushes at once).
    """

    def __init__(self, pool: OperatorPool, executor,
                 max_batch: int = 8, max_wait: float = 2e-3):
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ConfigurationError(
                f"max_wait must be >= 0, got {max_wait}")
        self.pool = pool
        self._executor = executor
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._windows: dict[str, _Window] = {}
        self._inflight: set[asyncio.Task] = set()
        #: Open connections: the ones a window may still wait for.
        self._connections: set[Hashable] = set()
        #: The pending end-of-turn decision, if one is scheduled.
        self._decision: asyncio.Handle | None = None
        #: Columns admitted and not yet answered (queued + executing);
        #: the admission controller sheds against this.
        self.backlog_columns = 0
        self.batches_flushed = 0
        self.requests_batched = 0

    # -- connections -----------------------------------------------------

    def connect(self, client: Hashable) -> None:
        """A connection opened: windows may now wait for it."""
        self._connections.add(client)

    def disconnect(self, client: Hashable) -> None:
        """A connection closed: windows stop waiting for it."""
        self._connections.discard(client)
        self._recheck()

    def _recheck(self) -> None:
        """Re-decide the connection rule at the end of this loop turn."""
        if self._decision is None and self._windows:
            self._decision = asyncio.get_running_loop().call_soon(
                self._decide)

    def _decide(self) -> None:
        """Flush every window if no open connection is left to join."""
        self._decision = None
        waiting = {item.client for window in self._windows.values()
                   for item in window.items}
        if self._connections <= waiting:
            for key in list(self._windows):
                self._flush(key)

    # -- submission ------------------------------------------------------

    async def submit(self, spec: SystemSpec, forces: np.ndarray,
                     client: Hashable | None = None) -> np.ndarray:
        """Queue one request; resolves to its ``(3n, s)`` velocities.

        ``client`` is the submitting connection, which then counts as
        waiting in this window (``None`` for in-process callers).
        """
        if forces.ndim != 2 or forces.shape[0] != 3 * spec.n:
            raise ProtocolError(
                f"forces must have shape (3n, s) = ({3 * spec.n}, s), "
                f"got {forces.shape}")
        loop = asyncio.get_running_loop()
        key = spec.operator_key()
        window = self._windows.get(key)
        if window is None:
            window = _Window()
            self._windows[key] = window
            if self.max_wait > 0:
                window.timer = loop.call_later(
                    self.max_wait, self._flush, key)
        item = _Item(spec=spec, forces=forces,
                     future=loop.create_future(), enqueued_at=now(),
                     client=client)
        window.items.append(item)
        window.columns += forces.shape[1]
        self.backlog_columns += forces.shape[1]
        self.requests_batched += 1
        obs.set_gauge("serve_queue_depth",
                      self.backlog_columns, queue="mobility")
        if window.columns >= self.max_batch or self.max_wait == 0:
            self._flush(key)
        else:
            self._recheck()
        return await item.future

    # -- flushing --------------------------------------------------------

    def _flush(self, key: str) -> None:
        """Close the window of ``key`` and start its batch apply."""
        window = self._windows.pop(key, None)
        if window is None or not window.items:
            return
        if window.timer is not None:
            window.timer.cancel()
        task = asyncio.get_running_loop().create_task(
            self._run_batch(key, window.items))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, key: str, items: list[_Item]) -> None:
        loop = asyncio.get_running_loop()
        columns = sum(item.forces.shape[1] for item in items)
        registry = obs.get_metrics()
        if registry is not None:
            registry.histogram(
                "serve_batch_occupancy",
                help="columns per flushed apply_block",
                buckets=_OCCUPANCY_BUCKETS).observe(columns)
            registry.histogram(
                "serve_batch_requests",
                help="requests per flushed apply_block",
                buckets=_OCCUPANCY_BUCKETS).observe(len(items))
            wait_hist = registry.histogram(
                "serve_batch_wait_seconds",
                help="in-queue wait before the batch flushed",
                buckets=_WAIT_BUCKETS)
            t_flush = now()
            for item in items:
                wait_hist.observe(max(0.0, t_flush - item.enqueued_at))
        entry = None
        try:
            entry = await self.pool.acquire(key, items[0].spec)
            entry.busy += 1
            try:
                async with entry.lock:
                    block = (items[0].forces if len(items) == 1
                             else np.concatenate(
                                 [item.forces for item in items], axis=1))
                    with obs.span("serve.apply_block", vectors=columns,
                                  requests=len(items),
                                  fingerprint=key[:12]):
                        velocities = await loop.run_in_executor(
                            self._executor, entry.operator.apply_block,
                            block)
            finally:
                entry.busy -= 1
            entry.applies += 1
            entry.columns_served += columns
            offset = 0
            for item in items:
                s = item.forces.shape[1]
                if not item.future.done():
                    # slice copies: the batch buffer must not be pinned
                    # by response lifetimes
                    item.future.set_result(
                        np.ascontiguousarray(
                            velocities[:, offset:offset + s]))
                offset += s
        except Exception as exc:  # noqa: RPR006 - request boundary: the
            # exception is classified and transported to every waiting
            # request future; the dispatch layer re-raises it per client
            kind = classify_exception(exc)
            obs.inc("serve_batch_failures_total", kind=kind.value)
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
        finally:
            self.backlog_columns -= columns
            obs.set_gauge("serve_queue_depth",
                          self.backlog_columns, queue="mobility")
            self.batches_flushed += 1

    # -- lifecycle -------------------------------------------------------

    async def drain(self) -> None:
        """Flush every open window and wait for in-flight batches."""
        for key in list(self._windows):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)

    def stats(self) -> dict[str, Any]:
        return {"backlog_columns": self.backlog_columns,
                "open_windows": len(self._windows),
                "inflight_batches": len(self._inflight),
                "batches_flushed": self.batches_flushed,
                "requests_batched": self.requests_batched,
                "max_batch": self.max_batch, "max_wait": self.max_wait}
