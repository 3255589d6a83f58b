"""Deterministic result cache (LRU + TTL) and single-flight dedup.

Because every served result is a pure function of its cache key — the
:class:`~repro.serve.protocol.SystemSpec` fingerprint plus the
request's own inputs (seed and steps for ``simulate``, the exact force
bytes for ``mobility.apply``) — caching is *semantically invisible*: a
hit returns the same bytes the computation would have produced.  The
cache therefore needs no invalidation protocol, only bounds:

* **LRU** — at most ``max_entries`` results are kept; the least
  recently *used* entry is evicted first;
* **TTL** — entries older than ``ttl`` seconds are treated as absent
  (and dropped on access), so a long-lived server does not pin
  arbitrarily old campaign results in memory forever.

:class:`SingleFlight` deduplicates *concurrent* identical requests:
the first caller computes, every later caller that arrives before the
result lands awaits the same future.  Combined with the cache this
gives the classic thundering-herd protection — N identical requests
cost one computation, then hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from ..errors import ConfigurationError
from ..utils.timing import now

__all__ = ["ResultCache", "SingleFlight"]


@dataclass
class _Entry:
    value: Any
    stored_at: float


@dataclass
class CacheStats:
    """Counters exposed through the ``stats`` op and serve metrics."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    def to_json(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations}


class ResultCache:
    """Bounded, time-limited map of request keys to finished results.

    Parameters
    ----------
    max_entries:
        LRU bound (>= 1).
    ttl:
        Seconds an entry stays servable; ``None`` disables expiry.
    clock:
        Injectable time source (tests); defaults to
        :func:`repro.utils.timing.now`.
    """

    def __init__(self, max_entries: int = 256, ttl: float | None = 600.0,
                 clock: Callable[[], float] = now):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ConfigurationError(f"ttl must be positive, got {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Any | None:
        """The cached value, or ``None`` on miss/expiry."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if (self.ttl is not None
                and self._clock() - entry.stored_at > self.ttl):
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def put(self, key: str, value: Any) -> None:
        """Store a finished result (refreshes recency and timestamp)."""
        self._entries[key] = _Entry(value=value, stored_at=self._clock())
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def to_json(self) -> dict[str, Any]:
        return {"entries": len(self._entries),
                "max_entries": self.max_entries, "ttl": self.ttl,
                **self.stats.to_json()}


class SingleFlight:
    """Coalesce concurrent identical computations onto one future.

    Asyncio-native (no locks needed: all bookkeeping happens on the
    event loop).  Usage::

        result = await flight.run(key, lambda: compute_async())

    The first ``run`` for a key invokes ``compute``; callers arriving
    while it is in flight await the same result.  The key is released
    when the computation finishes (either way), so a *failed* flight
    is retried by the next request rather than caching the exception
    forever; when the computing caller is *cancelled* (its client went
    away), the first joiner to wake computes instead.
    """

    def __init__(self) -> None:
        self._inflight: dict[str, "Any"] = {}
        #: Number of calls answered by joining an existing flight.
        self.joined = 0

    def active(self) -> int:
        """Number of computations currently in flight."""
        return len(self._inflight)

    async def run(self, key: str,
                  compute: Callable[[], Awaitable[Any]]) -> Any:
        import asyncio

        while (existing := self._inflight.get(key)) is not None:
            self.joined += 1
            try:
                return await asyncio.shield(existing)
            except asyncio.CancelledError:
                if not existing.cancelled():
                    raise           # this caller's own cancellation
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            value = await compute()
        except asyncio.CancelledError:
            future.cancel()         # joiners take the computation over
            raise
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # consume so a join-free failure isn't "never retrieved"
                future.exception()
            raise
        else:
            if not future.done():
                future.set_result(value)
            return value
        finally:
            self._inflight.pop(key, None)
