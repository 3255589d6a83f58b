"""Execution contexts: who owns the workers, and which backend runs them.

:class:`ExecutionContext` is the one object in the package that owns
worker resources — one ``ThreadPoolExecutor``, used by the ``threads``
backend — and the only place such a pool is constructed (lint rule
RPR011 enforces this).  Everything in the hot path that can run in
parallel takes a context:

* spreading and interpolation of the PME pipeline, as gathers over
  mesh-row and particle-row ranges (every output element has one
  writer, so there is nothing to colour or lock; a one-worker spread
  of one column scatters by particle instead, with the same bytes),
* the FFTs, both directions: every lane is one single-threaded
  transform, and lane ranges are split over the workers (no
  ``workers=`` of :mod:`scipy.fft`: that starts pocketfft's own
  process-global pool, which no context sizes, counts or closes),
* the chunked BCSR SpMM of the real-space term (Section IV.C).

The headline invariant: for a fixed kernel configuration, the
``serial`` and ``threads`` backends produce **bit-identical** results
at any worker count — every partition the context hands out
(:meth:`ExecutionContext.run_ranges` over :func:`row_blocks`: the one
place that decides how a stage is split) writes disjoint outputs and
preserves the per-element accumulation order, so parallelism never
perturbs the floating-point sums.  ``serial`` is not the absence of a
context: it is a one-worker context running every task inline, and it
is what :func:`default_context` returns unless the config selects
``threads``.

The pool is created lazily on first dispatch and owned until
:meth:`ExecutionContext.close` (idempotent; the context is also a
context manager).  Dispatches are observable: each one increments the
``exec_tasks_total`` counter and records the pool queue lag (submit →
first task start) in the ``exec_queue_lag_seconds`` gauge.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from .. import obs
from ..config import BACKENDS, get_config
from ..errors import ConfigurationError
from ..utils.timing import now

__all__ = ["ExecutionContext", "INLINE", "default_context",
           "reset_default_context", "row_blocks"]


def row_blocks(n_rows: int, n_workers: int) -> list[tuple[int, int]]:
    """Split ``n_rows`` into ``n_workers`` contiguous, balanced ranges.

    Returns half-open ``(start, stop)`` ranges; sizes differ by at most
    one.  Workers beyond ``n_rows`` receive empty ranges.  (The paper's
    row-block partition of ``P``, Section IV.B.1.)
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if n_rows < 0:
        raise ConfigurationError(f"n_rows must be >= 0, got {n_rows}")
    base, extra = divmod(n_rows, n_workers)
    ranges = []
    start = 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class ExecutionContext:
    """Owns backend selection and worker resources for parallel stages.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"threads"``; default from
        :func:`repro.config.get_config`.
    workers:
        Worker count; default is the config's resolved count (one per
        available CPU when the ``exec_workers`` knob is 0).  The
        ``serial`` backend always reports one worker.
    """

    def __init__(self, backend: str | None = None,
                 workers: int | None = None):
        backend = (get_config().backend if backend is None
                   else str(backend).lower())
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {'|'.join(BACKENDS)}, "
                f"got {backend!r}")
        if workers is None:
            workers = (1 if backend == "serial"
                       else get_config().resolved_workers())
        workers = max(1, int(workers))
        self._backend = backend
        self._workers = 1 if backend == "serial" else workers
        self._thread_pool: ThreadPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    # -- introspection --------------------------------------------------

    @property
    def backend(self) -> str:
        """The selected backend name."""
        return self._backend

    @property
    def workers(self) -> int:
        """Worker count (1 for the serial backend)."""
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    def span_args(self) -> dict[str, Any]:
        """Span/phase annotations identifying this context."""
        return {"backend": self._backend, "workers": self._workers}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (f"ExecutionContext(backend={self._backend!r}, "
                f"workers={self._workers}, {state})")

    # -- pool -----------------------------------------------------------

    def thread_pool(self) -> ThreadPoolExecutor:
        """The lazily created thread pool behind :meth:`run_tasks`."""
        self._check_open()
        if self._thread_pool is None:
            with self._lock:
                if self._thread_pool is None:
                    self._thread_pool = ThreadPoolExecutor(
                        max_workers=self._workers,
                        thread_name_prefix="repro-exec")
        return self._thread_pool

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "ExecutionContext is closed; create a new one")

    # -- dispatch -------------------------------------------------------

    def run_tasks(self, tasks: Sequence[Callable[[], Any]],
                  stage: str = "exec") -> list[Any]:
        """Run independent thunks; barrier; returns results in order.

        A context with more than one worker dispatches to its thread
        pool (the compiled kernels and pocketfft release the GIL, so
        this is genuine parallelism); one worker runs inline.
        """
        self._check_open()
        if not tasks:
            return []
        queue_lag = 0.0
        if self._workers > 1 and len(tasks) > 1:
            submit_t = now()
            first_start = [None]

            def timed(task: Callable[[], Any]) -> Any:
                if first_start[0] is None:
                    first_start[0] = now()
                return task()

            pool = self.thread_pool()
            futures = [pool.submit(timed, task) for task in tasks]
            results = [future.result() for future in futures]
            queue_lag = max(0.0, (first_start[0] or submit_t) - submit_t)
        else:
            results = [task() for task in tasks]
        obs.inc("exec_tasks_total", len(tasks))
        registry = obs.get_metrics()
        if registry is not None:
            registry.gauge("exec_queue_lag_seconds",
                           help="pool queue lag of the last dispatch "
                                "(submit to first task start)",
                           backend=self._backend,
                           stage=stage).set(queue_lag)
        return results

    def run_ranges(self, fn: Callable[[int, int], Any], n: int,
                   stage: str = "exec") -> list[Any]:
        """``fn(lo, hi)`` over ``[0, n)`` split among the workers.

        The one decision of how a stage is split: the non-empty
        :func:`row_blocks` of ``n`` over :attr:`workers`, dispatched as
        one :meth:`run_tasks` barrier (so one worker, or ``n < 2``, runs
        inline and ``n == 0`` dispatches nothing).
        """
        return self.run_tasks(
            [functools.partial(fn, lo, hi)
             for lo, hi in row_blocks(n, self._workers) if hi > lo],
            stage=stage)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the owned pool; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None

    def __enter__(self) -> "ExecutionContext":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: The calling thread as a context (one worker, every task inline, no
#: pool, never closed): what ``context=None`` means on the leaf methods
#: that take an optional context.
INLINE = ExecutionContext("serial")


# ----------------------------------------------------------------------
# process-default context (config-driven)
# ----------------------------------------------------------------------

_default: ExecutionContext | None = None


def default_context() -> ExecutionContext:
    """The config-selected context shared by operators built without
    an explicit ``context=``.

    With the default ``serial`` backend that is a one-worker context
    running every stage on the calling thread; when the resolved
    :class:`~repro.config.RuntimeConfig` selects ``threads``
    (``REPRO_BACKEND`` / ``--backend``) it is one pooled context,
    rebuilt when the backend or worker count changes.
    """
    config = get_config()
    key = (config.backend, config.resolved_workers())
    global _default
    if (_default is None or _default.closed
            or (_default.backend, _default.workers) != key):
        reset_default_context()     # stale config: release the old pool
        _default = ExecutionContext(*key)
    return _default


def reset_default_context() -> None:
    """Forget the shared default context and release its pool (test/CLI
    helper).  A ``serial`` default owns no pool and is left open: an
    operator built before a reset or a config flip keeps a usable one."""
    global _default
    if _default is not None and _default.backend != "serial":
        _default.close()
    _default = None
