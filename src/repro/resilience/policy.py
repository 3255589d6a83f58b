"""The structured recovery log.

Every action the recovery runtime (:mod:`repro.resilience.recovery`,
whose constants are the whole recovery policy) takes is recorded as a
:class:`RecoveryEvent` in a :class:`RecoveryLog`, which is returned
with the run statistics so a production service (or the
fault-injection soak test) can account for every recovery after the
fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .. import obs
from .failures import FailureKind

__all__ = ["RecoveryEvent", "RecoveryLog"]


@dataclass
class RecoveryEvent:
    """One recorded recovery action.

    ``action`` is one of: ``detect`` (a failure was observed),
    ``retry-lanczos``, ``fallback-cholesky``, ``fallback-eigh``,
    ``dt-backoff``, ``restore-dt``, ``rollback``, or a fault-injection
    marker (``inject-*``) from the test harness.
    """

    step: int
    kind: FailureKind
    action: str
    attempt: int = 0
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class RecoveryLog:
    """Append-only record of every failure seen and action taken."""

    events: list[RecoveryEvent] = field(default_factory=list)

    def record(self, step: int, kind: FailureKind, action: str,
               attempt: int = 0, **detail: Any) -> RecoveryEvent:
        """Append and return a new :class:`RecoveryEvent`.

        Every event is mirrored to the observability layer (when
        enabled) as an instant trace event ``recovery.<action>`` and a
        ``recovery_events_total{action,kind}`` counter increment — this
        method is the single chokepoint all recovery actions flow
        through.
        """
        event = RecoveryEvent(step=step, kind=kind, action=action,
                              attempt=attempt, detail=detail)
        self.events.append(event)
        obs.instant(f"recovery.{action}", kind=kind.value, step=step,
                    attempt=attempt)
        obs.inc("recovery_events_total", action=action, kind=kind.value)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def count(self, action: str | None = None,
              kind: FailureKind | str | None = None) -> int:
        """Number of events matching ``action`` and/or ``kind``."""
        kind = FailureKind(kind) if kind is not None else None
        return sum(1 for e in self.events
                   if (action is None or e.action == action)
                   and (kind is None or e.kind == kind))

    @property
    def failures(self) -> list[RecoveryEvent]:
        """The ``detect`` events (one per observed failure)."""
        return [e for e in self.events if e.action == "detect"]

    def summary(self) -> str:
        """One line per distinct ``(kind, action)`` with counts."""
        if not self.events:
            return "no recovery events"
        tally: dict[tuple[str, str], int] = {}
        for e in self.events:
            key = (e.kind.value, e.action)
            tally[key] = tally.get(key, 0) + 1
        return "\n".join(f"{kind:<24} {action:<20} x{count}"
                         for (kind, action), count in sorted(tally.items()))
