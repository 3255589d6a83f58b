"""Worker-process entry point of the ensemble runtime.

Each worker owns one end of a duplex pipe to the supervisor and runs
one :class:`~repro.runtime.tasks.TaskSpec` at a time:

1. build the suspension and integrator *from the spec alone* (never
   from worker-local state — the determinism contract),
2. run it through :func:`~repro.core.checkpoint.run_checkpointed`,
   which continues the task's latest checkpoint if one exists
   (``.prev`` fallback; an unusable pair restarts from scratch) and
   writes a rotating checkpoint every ``lambda_RPY`` steps; the
   worker's save hook sends a ``checkpoint`` message after each write,
   and ``heartbeat`` messages are paced in between,
4. report ``done`` with the final unwrapped positions *and* their
   SHA-256 digest — the supervisor recomputes the digest on receipt,
   so a corrupted payload is detected end-to-end.

Process faults from the :class:`~repro.resilience.faults.FaultPlan`
are executed here: ``kill`` SIGKILLs the worker mid-step, ``hang``
stops both progress and heartbeats (the supervisor's watchdog must
notice), ``slow`` injects per-step delay while heartbeats continue
(the deadline must notice), and ``corrupt`` flips a byte of the result
payload after the true digest was computed.

A graceful drain (supervisor sets the shared stop event) ends the task
at the next ``lambda_RPY`` block boundary — exactly where a checkpoint
was just written — so a drained campaign resumes bit-identically.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any

import numpy as np

from ..core.checkpoint import run_checkpointed, save_checkpoint
from ..core.forces import RepulsiveHarmonic
from ..core.integrators import MatrixFreeBD
from ..obs import set_metrics, set_tracer
from ..obs.collect import SpoolingSession
from ..resilience.failures import StepFailure
from ..systems.suspension import make_suspension
from ..utils.timing import now
from .tasks import TaskSpec, positions_digest

__all__ = ["worker_main", "failure_report"]

#: Seconds between heartbeat messages while a task is stepping.
HEARTBEAT_INTERVAL = 0.05


def failure_report(failure: StepFailure, attempt: int) -> dict[str, Any]:
    """Serialize a :class:`StepFailure` for the campaign manifest."""
    return {"kind": failure.kind.value, "message": str(failure),
            "step": failure.step, "attempt": attempt,
            "diagnostics": {k: v for k, v in failure.diagnostics.items()
                            if isinstance(v, (int, float, str, bool))}}


def _corrupt_payload(positions: np.ndarray) -> np.ndarray:
    """Flip one byte of the position payload (bad-DIMM simulation)."""
    buf = bytearray(np.ascontiguousarray(positions).tobytes())
    buf[0] ^= 0xFF
    return np.frombuffer(bytes(buf),
                         dtype=np.float64).reshape(positions.shape)


def _build_integrator(spec: TaskSpec, context=None):
    suspension = make_suspension(spec.n, spec.phi, seed=spec.system_seed)
    force_field = (RepulsiveHarmonic(suspension.box, suspension.fluid)
                   if spec.forces else None)
    integrator = MatrixFreeBD(
        box=suspension.box, fluid=suspension.fluid,
        force_field=force_field, dt=spec.dt, lambda_rpy=spec.lambda_rpy,
        seed=spec.seed, pme_params=spec.pme, e_k=spec.e_k,
        context=context)
    return suspension, integrator


def _run_task(conn, stop_event, spec: TaskSpec, attempt: int,
              fault: dict[str, Any] | None,
              checkpoint_dir: str, slow_per_step: float,
              session: SpoolingSession | None = None,
              context=None) -> str:
    """Execute one task; reports over ``conn``, returns the outcome."""
    suspension, integrator = _build_integrator(spec, context=context)
    ckpt_path = spec.checkpoint_path(checkpoint_dir)
    fault_kind = fault["kind"] if fault is not None else None
    fault_step = fault["at_step"] if fault is not None else -1
    last_hb = [now()]

    def reported() -> None:
        last_hb[0] = now()
        if session is not None:
            session.flush()  # trace/metrics ride the same cadence

    def callback(step: int, wrapped: np.ndarray,
                 unwrapped: np.ndarray) -> None:
        if fault_kind == "kill" and step == fault_step:
            os.kill(os.getpid(), signal.SIGKILL)
        if fault_kind == "hang" and step >= fault_step:
            while True:  # no progress, no heartbeats: watchdog food
                time.sleep(0.05)
        if fault_kind == "slow" and step >= fault_step:
            time.sleep(slow_per_step)
        if (step % spec.lambda_rpy
                and now() - last_hb[0] >= HEARTBEAT_INTERVAL):
            conn.send({"msg": "heartbeat", "task_id": spec.task_id,
                       "step": step})
            reported()

    def save(path, wrapped, unwrapped, step, rng) -> None:
        save_checkpoint(path, wrapped, unwrapped, step, rng)
        conn.send({"msg": "checkpoint", "task_id": spec.task_id,
                   "completed_step": step, "checkpoint": path})
        reported()

    # the integrator consults stop only at block boundaries, where a
    # checkpoint was just written: the resumed campaign stays
    # bit-identical.  A checkpoint at or past the end (a retry after a
    # corrupt-result fault) *is* the final state, reported byte for byte
    final, stats, step0, _ = run_checkpointed(
        ckpt_path, integrator, suspension.positions, spec.n_steps,
        callback=callback, stop=stop_event.is_set, save=save)
    completed = step0 + stats.n_steps
    if stats.stopped_early:
        conn.send({"msg": "drained", "task_id": spec.task_id,
                   "completed_step": completed, "checkpoint": ckpt_path})
        return "drained"
    conn.send({"msg": "done", "task_id": spec.task_id,
               "completed_step": completed,
               "digest": positions_digest(final),
               "positions": (_corrupt_payload(final)
                             if fault_kind == "corrupt" else final)})
    return "done"


def worker_main(conn, stop_event, worker_id: int) -> None:
    """Process target: serve task assignments until shutdown.

    Must stay importable at module top level (spawn start method).

    With the fork start method the child inherits the supervisor's
    process-global tracer/registry; those belong to the supervisor's
    track, so they are cleared immediately.  When an assignment
    carries an ``obs`` config the worker builds a (process-lifetime)
    :class:`~repro.obs.collect.SpoolingSession`: the metrics registry
    accumulates across tasks, each task gets a fresh tracer stamped
    with the worker and task ids (the config's campaign ``trace_id``
    heads the spool), and both are flushed to the campaign directory
    at the same heartbeat/checkpoint cadence as progress messages — so
    a SIGKILL loses at most one flush window.
    """
    # the supervisor owns shutdown signals; workers must not race it
    # by reacting to a terminal Ctrl-C delivered to the process group
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_tracer(None)
    set_metrics(None)
    session: SpoolingSession | None = None
    context = None  # process-lifetime execution context (first task)
    conn.send({"msg": "ready", "worker_id": worker_id})
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            if context is not None:
                context.close()
            return  # supervisor died; nothing left to report to
        if message.get("cmd") == "shutdown":
            if session is not None:
                session.close()
            if context is not None:
                context.close()
            return
        if context is None:
            # the supervisor already divided the machine between the
            # ensemble workers; this share is ours for the process life
            from ..exec import ExecutionContext
            context = ExecutionContext(**message["exec"])
        spec = TaskSpec.from_json(message["spec"])
        obs_config = message.get("obs")
        if obs_config is not None and session is None:
            session = SpoolingSession(
                obs_config["spool_dir"], worker_id,
                trace=obs_config.get("trace", True),
                metrics=obs_config.get("metrics", True),
                trace_id=obs_config.get("trace_id"),
                max_events=obs_config.get("max_events", 1_000_000))
        if session is not None:
            session.begin_task(spec.task_id)
        outcome = "failed"
        try:
            outcome = _run_task(
                conn, stop_event, spec,
                attempt=message["attempt"],
                fault=message.get("fault"),
                checkpoint_dir=message["checkpoint_dir"],
                slow_per_step=message.get("slow_per_step", 0.0),
                session=session, context=context)
        except Exception as exc:  # noqa: RPR006 - worker boundary: the
            # failure is not swallowed, it crosses the process boundary
            # as a structured StepFailure report for the supervisor
            failure = StepFailure.from_exception(
                exc, attempt=message["attempt"])
            try:
                conn.send({"msg": "failed", "task_id": spec.task_id,
                           "failure": failure_report(
                               failure, message["attempt"])})
            except (OSError, BrokenPipeError):
                return
        finally:
            if session is not None:
                session.end_task(outcome)
