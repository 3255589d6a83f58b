"""Persistent process pool with shared-memory operands.

The ``processes`` backend of :class:`repro.exec.context.ExecutionContext`
cannot ship NumPy operands through pickles on every stage — the PME
apply would spend more time serializing than computing.  Instead the
pool mirrors the paper's static-partition design (Section IV.E): the
large arrays (interpolation weights/columns, particle operands, the
``(lanes, K^3)`` mesh, the BCSR payload) live in
``multiprocessing.shared_memory`` segments registered once under
stable string keys, and per-stage messages carry only segment *tokens*
plus index ranges.  Workers attach lazily and cache their attachments,
so steady-state traffic is a few hundred bytes per stage.

Three structured jobs are served (the compiled entry points of
:mod:`repro.sparse.kernels`, or its NumPy fallbacks preserving the
exact accumulation order — the same calls the ``threads`` backend
makes):

* ``spread`` — scatter-add of per-block particle ranges of one color
  onto the shared mesh (disjoint writes by the coloring invariant, so
  concurrent workers use plain stores);
* ``interp`` — gather of a particle row range from the shared mesh;
* ``spmm``   — BCSR SpMM over a block-row range.

Workers are started with the ``fork`` method when available (inherits
the compiled-kernel memo and environment); ``spawn`` works too because
the worker target and job table are module-level.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable

import numpy as np

from ..sparse import kernels

__all__ = ["ProcPool", "ShmToken"]

#: Picklable handle to a shared segment: (shm name, shape, dtype str).
ShmToken = tuple[str, tuple[int, ...], str]


# ----------------------------------------------------------------------
# worker-side jobs
# ----------------------------------------------------------------------

def _job_spread(args: dict[str, Any], attach: Callable[..., np.ndarray]
                ) -> None:
    kernels.spread_ranges(attach(args["data"]), attach(args["cols"]),
                          attach(args["idx"]), attach(args["vals"]),
                          attach(args["out"]), args["ranges"])


def _job_interp(args: dict[str, Any], attach: Callable[..., np.ndarray]
                ) -> None:
    kernels.interp_ranges(attach(args["data"]), attach(args["cols"]),
                          attach(args["mesh"]), attach(args["out"]),
                          args["ranges"])


def _job_spmm(args: dict[str, Any], attach: Callable[..., np.ndarray]
              ) -> None:
    kern = kernels.spmm_kernel()
    if kern is None:
        raise RuntimeError(
            "spmm job dispatched to a worker without the native kernel")
    x = attach(args["x"])
    for lo, hi in args["ranges"]:
        kern(lo, hi, attach(args["indptr"]), attach(args["indices"]),
             attach(args["blocks"]), x, attach(args["y"]), x.shape[2])


_JOBS: dict[str, Callable[[dict[str, Any], Callable[..., np.ndarray]],
                          None]] = {
    "spread": _job_spread,
    "interp": _job_interp,
    "spmm": _job_spmm,
}


def _proc_worker_main(conn: Any) -> None:
    """Worker loop: attach segments lazily, serve jobs until shutdown."""
    cache: dict[str, shared_memory.SharedMemory] = {}

    def attach(token: ShmToken) -> np.ndarray:
        """View of a shared segment (attachments cached)."""
        name, shape, dtype = token
        shm = cache.get(name)
        if shm is None:
            # registers with the resource tracker the worker shares with
            # the parent (ProcPool starts it before the workers): a no-op
            # there, and the parent's unlink() is the one unregistration
            shm = cache[name] = shared_memory.SharedMemory(name=name)
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message.get("cmd") == "shutdown":
                return
            try:
                _JOBS[message["job"]](message, attach)
                conn.send({"ok": True})
            except Exception as exc:  # noqa: RPR006 - process boundary:
                # the failure crosses back to the parent as a classified
                # report (same contract as the ensemble workers)
                from ..resilience.failures import StepFailure
                failure = StepFailure.from_exception(exc, attempt=0)
                try:
                    conn.send({"ok": False,
                               "error": f"{failure.kind.value}: {exc}"})
                except (OSError, BrokenPipeError):
                    return
    finally:
        for shm in cache.values():
            shm.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

class ProcPool:
    """Parent-side handle to the persistent worker processes.

    Parameters
    ----------
    n_workers:
        Number of worker processes (each holds one duplex pipe).
    """

    def __init__(self, n_workers: int):
        self.n_workers = max(1, int(n_workers))
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        # Workers must share this process's resource tracker: one that a
        # worker started for itself would unlink the parent's segments
        # when the worker exits.
        resource_tracker.ensure_running()
        self._conns = []
        self._procs = []
        for _ in range(self.n_workers):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_proc_worker_main, args=(child,),
                               daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        #: key -> (SharedMemory, shape, dtype str); parent owns lifetime.
        self._segments: dict[str, tuple[shared_memory.SharedMemory,
                                        tuple[int, ...], str]] = {}
        self._closed = False

    # -- shared segments ------------------------------------------------

    def share(self, key: str, array: np.ndarray) -> ShmToken:
        """Publish ``array`` under ``key``; returns the segment token.

        Re-sharing the same key with matching shape/dtype copies the
        new contents into the existing segment (workers keep their
        attachment); a shape/dtype change allocates a fresh segment.
        """
        array = np.ascontiguousarray(array)
        token = self.output(key, array.shape, array.dtype)
        self.view(key)[...] = array
        return token

    def output(self, key: str, shape: tuple[int, ...],
               dtype: Any = np.float64) -> ShmToken:
        """Ensure an output segment exists; contents are unspecified."""
        dtype = np.dtype(dtype)
        entry = self._segments.get(key)
        if entry is not None and (entry[1] != tuple(shape)
                                  or entry[2] != dtype.str):
            entry[0].close()
            entry[0].unlink()
            del self._segments[key]
            entry = None
        if entry is None:
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            shm = shared_memory.SharedMemory(create=True,
                                             size=max(1, nbytes))
            entry = (shm, tuple(shape), dtype.str)
            self._segments[key] = entry
        return (entry[0].name, entry[1], entry[2])

    def view(self, key: str) -> np.ndarray:
        """Parent-side ndarray view of a registered segment."""
        shm, shape, dtype = self._segments[key]
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)

    # -- dispatch -------------------------------------------------------

    def run(self, job: str, shares: list[list[tuple[int, int]]],
            **shared: Any) -> None:
        """Run one job with worker ``w`` on the ranges ``shares[w]``; barrier.

        ``shared`` (segment tokens) goes to every worker.  Raises
        ``RuntimeError`` if any worker reports an error or died.
        """
        if self._closed:
            raise RuntimeError("ProcPool is closed")
        for w, ranges in enumerate(shares):
            self._conns[w].send({"job": job, "ranges": ranges, **shared})
        errors = []
        for w in range(len(shares)):
            try:
                reply = self._conns[w].recv()
            except (EOFError, OSError):
                errors.append(f"worker {w} died")
                continue
            if not reply.get("ok"):
                errors.append(f"worker {w}: {reply.get('error')}")
        if errors:
            raise RuntimeError("; ".join(errors))

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down workers and release every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send({"cmd": "shutdown"})
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        for shm, _, _ in self._segments.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
