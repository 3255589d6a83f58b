"""Lightweight timers used by the PME operator and the benchmark harness.

The paper's Section V instruments each PME phase separately (Fig. 5).
:class:`PhaseTimer` accumulates named phase durations so operators can
report a per-phase breakdown without littering the numerical code with
timing logic.

When a :mod:`repro.obs` tracer is installed and the timer carries a
``prefix``, every outermost phase occurrence is additionally recorded
as a trace span ``<prefix>.<name>`` — the span encloses the timer's
own start/stop pair, so per-phase span totals are always >= (and
within microseconds of) the accumulated timer values.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..obs import trace as _trace

__all__ = ["Timer", "PhaseTimer", "now"]


def now() -> float:
    """Monotonic clock read for schedulers (heartbeats, deadlines).

    The ensemble runtime needs raw timestamps — heartbeat ages and
    deadline arithmetic, not intervals — which :class:`Timer` does not
    model.  Routing the read through this module keeps the RPR009
    "no ad-hoc clock reads" chokepoint intact.
    """
    return time.monotonic()


@dataclass
class Timer:
    """A resettable stopwatch accumulating wall-clock time.

    Use either as a context manager::

        t = Timer()
        with t:
            work()
        print(t.elapsed)

    or manually via :meth:`start` / :meth:`stop`.
    """

    elapsed: float = 0.0
    #: Number of completed start/stop intervals.
    count: int = 0
    _t0: float | None = None

    def start(self) -> "Timer":
        """Begin an interval; returns ``self`` for chaining.

        Starting while an interval is already in flight raises
        ``RuntimeError`` (it would silently discard the open interval —
        the mirror image of the ``stop()``-before-``start()`` guard).
        """
        if self._t0 is not None:
            raise RuntimeError(
                "Timer.start() called with an interval already in flight; "
                "stop() or reset() first")
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> float:
        """End the current interval and return its duration."""
        if self._t0 is None:
            raise RuntimeError("Timer.stop() called before start()")
        dt = time.perf_counter() - self._t0
        self._t0 = None
        self.elapsed += dt
        self.count += 1
        return dt

    def reset(self) -> None:
        """Zero the accumulated time and interval count."""
        self.elapsed = 0.0
        self.count = 0
        self._t0 = None

    @property
    def mean(self) -> float:
        """Mean interval duration (0 if no intervals completed)."""
        return self.elapsed / self.count if self.count else 0.0

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time for named phases of a computation.

    The PME operator uses phase names ``"spread"``, ``"fft"``,
    ``"influence"``, ``"ifft"``, ``"interpolate"``, ``"real"`` matching
    the paper's Fig. 5 breakdown.

    :meth:`phase` is reentrant on the same name: nested occurrences are
    depth-counted and only the outermost one starts/stops the clock, so
    a recursive phase accumulates its wall time once instead of raising
    or double counting.

    When ``prefix`` is set (e.g. ``"pme"``) and a global
    :mod:`repro.obs` tracer is installed, each outermost phase
    occurrence also records a ``<prefix>.<name>`` trace span.
    """

    phases: dict[str, Timer] = field(default_factory=dict)
    #: Trace-span namespace; empty disables span emission entirely.
    prefix: str = ""
    _depth: dict[str, int] = field(default_factory=dict, repr=False)

    @contextmanager
    def phase(self, name: str, **span_args):
        """Context manager timing one occurrence of phase ``name``.

        Keyword arguments are attached to the emitted trace span (when
        a tracer and ``prefix`` are active) — e.g. ``vectors=s`` lets
        ``repro profile`` count batched pipeline passes correctly.
        """
        timer = self.phases.setdefault(name, Timer())
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        if depth:
            # reentrant occurrence: the outer frame owns the clock
            try:
                yield timer
            finally:
                self._depth[name] -= 1
            return
        span = (_trace.span(f"{self.prefix}.{name}", **span_args)
                if self.prefix else _trace.NULL_SPAN)
        with span:
            timer.start()
            try:
                yield timer
            finally:
                timer.stop()
                self._depth[name] -= 1

    def elapsed(self, name: str) -> float:
        """Total time accumulated in phase ``name`` (0 if never run)."""
        timer = self.phases.get(name)
        return timer.elapsed if timer else 0.0

    @property
    def total(self) -> float:
        """Sum of all phase times."""
        return sum(t.elapsed for t in self.phases.values())

    def breakdown(self) -> dict[str, float]:
        """Mapping of phase name to accumulated seconds."""
        return {name: t.elapsed for name, t in self.phases.items()}

    def reset(self) -> None:
        """Zero all phases (the phase names are retained)."""
        for t in self.phases.values():
            t.reset()
