"""Admission control: bounded queues, per-client caps, load shedding.

The service never buffers unboundedly.  Every request is checked
*before* it is queued, against three independent budgets:

* **queue depth** — the batcher's backlog (columns admitted and not
  yet answered) is capped; a full queue sheds instead of growing;
* **per-client in-flight** — one connection may hold at most
  ``max_inflight`` unanswered requests, so a single aggressive client
  cannot monopolize the queue budget;
* **concurrent jobs** — at most ``max_jobs`` simulate campaigns run
  at once (each owns worker processes; oversubscription would slow
  every job below its deadline rather than finish any).

A refused request gets a ``shed`` response carrying ``retry_after``
seconds — the Retry-After discipline: the *client* backs off and
retries; the *server's* memory stays bounded no matter the offered
load.  The hint scales with how oversubscribed the refused budget is,
so a deeper backlog spreads retries further apart.  A mobility request
wider than the whole queue budget is not shed: no retry could ever
admit it, so it is answered as a ``config`` error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..errors import ConfigurationError
from .protocol import ProtocolError

__all__ = ["Shed", "AdmissionController"]


@dataclass(frozen=True)
class Shed:
    """A refusal: why, and when the client should try again."""

    reason: str
    retry_after: float


class AdmissionController:
    """Stateless budget checks against live service counters.

    Parameters
    ----------
    max_queue_columns:
        Mobility backlog bound (queued + executing columns).
    max_inflight:
        Unanswered requests allowed per connection.
    max_jobs:
        Concurrent simulate campaigns allowed.
    base_retry_after:
        Retry-After floor in seconds; the hint grows linearly with
        the overload factor of the refused budget.
    """

    def __init__(self, max_queue_columns: int = 64,
                 max_inflight: int = 8, max_jobs: int = 2,
                 base_retry_after: float = 0.05):
        for name, value in (("max_queue_columns", max_queue_columns),
                            ("max_inflight", max_inflight),
                            ("max_jobs", max_jobs)):
            if value < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {value}")
        if base_retry_after <= 0:
            raise ConfigurationError(
                f"base_retry_after must be positive, got "
                f"{base_retry_after}")
        self.max_queue_columns = max_queue_columns
        self.max_inflight = max_inflight
        self.max_jobs = max_jobs
        self.base_retry_after = base_retry_after
        self.shed_total = 0

    def _shed(self, reason: str, load_factor: float) -> Shed:
        self.shed_total += 1
        obs.inc("serve_shed_total", reason=reason)
        return Shed(reason=reason,
                    retry_after=self.base_retry_after
                    * (1.0 + max(0.0, load_factor)))

    def check_inflight(self, client_inflight: int) -> Shed | None:
        """Per-connection cap, applied to every queued op."""
        if client_inflight >= self.max_inflight:
            return self._shed("client_inflight",
                              client_inflight / self.max_inflight)
        return None

    def check_mobility(self, columns: int, backlog: int) -> Shed | None:
        """Queue-depth budget for one mobility request.

        Raises :class:`~repro.serve.protocol.ProtocolError` for a
        request wider than the whole budget: it could never be
        admitted, so it is an error, not a shed to retry.
        """
        if columns > self.max_queue_columns:
            raise ProtocolError(
                f"{columns} force columns exceed the mobility queue "
                f"budget of {self.max_queue_columns} (max_queue_columns)")
        if backlog + columns > self.max_queue_columns:
            return self._shed("queue_full",
                              backlog / self.max_queue_columns)
        return None

    def check_simulate(self, active_jobs: int) -> Shed | None:
        """Concurrent-campaign budget for one simulate request."""
        if active_jobs >= self.max_jobs:
            # campaigns run for seconds, not milliseconds: hint at a
            # coarser retry than the mobility path
            return self._shed("jobs_full",
                              20.0 * active_jobs / self.max_jobs)
        return None

    def stats(self) -> dict[str, float | int]:
        return {"max_queue_columns": self.max_queue_columns,
                "max_inflight": self.max_inflight,
                "max_jobs": self.max_jobs,
                "shed_total": self.shed_total}
