"""Span recording around the program's public callables.

The benchmark measures every layer from outside: recorders are
installed *around* public functions, patched where they are looked up
(class attributes for methods; for a function, every module global
that holds it, because ``from x import f`` copies the reference).
``repro.obs`` stays off.

A span is ``(name, start, end, parent, scope)``; spans are kept in
memory and written as a Chrome trace when the run ends.  A span's
*self time* is its duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: ``scope`` of spans recorded outside any unit or set-up sequence.
NO_SCOPE = ("", -1)

#: Name prefixes of the modules whose globals ``patch_function`` rewrites.
PATCHED_MODULES = ("repro", "workloads")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index into Tracer.spans, -1 for a root
    scope: tuple[str, int]      # ("unit" | "setup", index)
    thread: int
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; inert unless ``active``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.scope: tuple[str, int] = NO_SCOPE
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.scope,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, **info: Any) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.info.update(info)
        self._stack().pop()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_scope(self, kind: str, index: int, on: bool) -> None:
        """Enter (``on``) or leave the unit / set-up sequence ``index``."""
        self.active = on
        self.scope = (kind, index) if on else NO_SCOPE

    # -- patching --------------------------------------------------------

    def wrap(self, name: str, fn: Callable, info: Callable | None = None,
             delta: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name`` while the tracer is active.

        ``info(result, *args, **kwargs)`` returns exact facts (counts)
        stored on the span; ``delta(*args, **kwargs)`` returns a dict of
        running totals read before and after the call, whose increase
        is stored (a public accumulator such as ``phase_breakdown()``).
        """
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = delta(*args, **kwargs) if delta is not None else {}
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            facts = info(result, *args, **kwargs) if info is not None else {}
            if delta is not None:
                facts = {**facts, **{k: v - before.get(k, 0.0) for k, v
                                     in delta(*args, **kwargs).items()}}
            self.end(index, **facts)
            return result
        return recorded

    def patch_method(self, cls: type, attr: str, layer: str,
                     info: Callable | None = None,
                     delta: Callable | None = None) -> None:
        raw = cls.__dict__[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            new: Any = classmethod(
                self.wrap(name, raw.__func__, info, delta))
        else:
            new = self.wrap(name, raw, info, delta)
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def patch_function(self, fn: Callable, layer: str,
                       info: Callable | None = None) -> None:
        """Replace every global of ``repro`` and ``workloads`` that *is* ``fn``."""
        new = self.wrap(f"{layer}.{fn.__name__}", fn, info)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(PATCHED_MODULES):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, new)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, fn))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis --------------------------------------------------------

    def chrome_trace(self, path: str) -> None:
        """Write the spans in ``chrome://tracing`` / Perfetto JSON."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "ph": "X", "pid": 0, "tid": s.thread,
                   "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                   "args": {"scope": f"{s.scope[0]}:{s.scope[1]}",
                            "parent": s.parent, **s.info}}
                  for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time (seconds), aligned with ``spans``."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def per_scope(spans: list[Span], values: list[float], kind: str
              ) -> dict[str, dict[int, float]]:
    """``values`` summed per span name and per scope index of ``kind``."""
    out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span, value in zip(spans, values):
        if span.scope[0] == kind:
            out[span.name][span.scope[1]] += value
    return out
