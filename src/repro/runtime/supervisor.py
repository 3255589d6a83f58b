"""The ensemble supervisor: worker pool, watchdog, retry, drain.

The supervisor shards a campaign of :class:`~repro.runtime.tasks.TaskSpec`
members across OS worker processes and keeps the campaign alive through
every process-level failure the fault plan (or reality) throws at it:

* **worker death** — the process sentinel fires; the task retries from
  its latest block-aligned checkpoint on a respawned worker,
* **hang** — heartbeats stop; the watchdog SIGKILLs the worker after
  ``hang_timeout`` seconds of silence,
* **slowness** — heartbeats continue but the per-task ``deadline``
  expires; same kill-and-retry path,
* **corrupt result** — the recomputed SHA-256 of the returned
  positions disagrees with the digest the worker computed before
  transmission; the payload is discarded and the task retried.

Retries are spaced by :func:`~repro.resilience.backoff.retry_delay`
(exponential with deterministic per-task jitter).  Every attempt
already runs the in-process recovery runtime
(:mod:`repro.resilience.recovery`), so a task that keeps failing is
not retried forever: its :data:`MAX_TASK_FAILURES`-th failed attempt
quarantines it with a structured failure report — the campaign never
wedges on one sick member.

SIGTERM/SIGINT (via :class:`~repro.runtime.signals.GracefulShutdown`)
triggers a drain: no new assignments, workers stop at their next block
boundary, final checkpoints and a resumable
:class:`~repro.runtime.tasks.CampaignManifest` are written.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Sequence

from .. import obs
from ..errors import ConfigurationError
from ..obs.collect import CampaignCollection, collect_campaign
from ..resilience.backoff import retry_delay
from ..resilience.failures import FailureKind, StepFailure
from ..resilience.faults import FaultPlan
from ..utils.timing import now
from .signals import GracefulShutdown
from .tasks import (
    MANIFEST_NAME,
    CampaignManifest,
    TaskRecord,
    TaskSpec,
    TaskState,
    positions_digest,
)
from .worker import worker_main

__all__ = ["Supervisor", "SupervisorReport", "WorkerRestart"]

#: Failed attempts of one task (counted by each :class:`Supervisor`) after
#: which it is quarantined instead of retried.
MAX_TASK_FAILURES = 6

#: Worker restarts one campaign may need before it aborts with
#: :class:`StepFailure` (the pool itself is sick, e.g. an OOM loop;
#: retrying forever would thrash).
MAX_WORKER_RESTARTS = 50

#: Event-loop wait granularity in seconds.
POLL_INTERVAL = 0.05


def _mp_context():
    """Fork when available (fast respawn), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _campaign_trace_id(specs: Sequence[TaskSpec]) -> str:
    """Deterministic campaign trace id derived from the task set.

    Depends only on the specs' identities (ids, seeds, sizes) — never
    on wall clock or pid — so a resumed campaign merges under the same
    id as its first run.
    """
    h = hashlib.sha256()
    for s in specs:
        h.update(f"{s.task_id}:{s.n}:{s.n_steps}:{s.seed}:"
                 f"{s.system_seed}\n".encode())
    return "campaign-" + h.hexdigest()[:12]


@dataclass
class WorkerRestart:
    """One supervised worker replacement."""

    worker_id: int
    reason: str
    task_id: int | None


@dataclass
class SupervisorReport:
    """Outcome of one :meth:`Supervisor.run` campaign."""

    manifest: CampaignManifest
    restarts: list[WorkerRestart] = field(default_factory=list)
    fault_plan: FaultPlan | None = None
    #: Largest heartbeat silence observed on a live worker (seconds).
    max_heartbeat_lag: float = 0.0
    drained: bool = False
    #: Merged cross-process observability (``None`` when tracing and
    #: metrics were both off for the campaign).
    collection: CampaignCollection | None = None

    @property
    def digests(self) -> dict[int, str]:
        """Final-position digests of every completed task."""
        return {t.spec.task_id: t.digest for t in self.manifest.tasks
                if t.state is TaskState.DONE and t.digest is not None}

    def summary(self) -> str:
        counts = self.manifest.counts()
        parts = [f"{counts.get(s.value, 0)} {s.value}" for s in TaskState]
        line = f"tasks: {', '.join(parts)}; restarts: {len(self.restarts)}"
        if self.fault_plan is not None and self.fault_plan.faults:
            n = len(self.fault_plan.faults)
            line += (f"; faults: {n - len(self.fault_plan.unaccounted())}"
                     f"/{n} accounted")
        if self.drained:
            line += "; drained (resumable)"
        return line


class _WorkerHandle:
    """Supervisor-side state of one worker process."""

    def __init__(self, worker_id: int, ctx, stop_event):
        self.worker_id = worker_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main, args=(child_conn, stop_event, worker_id),
            daemon=True, name=f"repro-worker-{worker_id}")
        self.process.start()
        child_conn.close()
        self.task: TaskRecord | None = None
        self.last_heartbeat = now()
        self.started_at = now()
        self.obs_t0 = obs.clock()

    @property
    def busy(self) -> bool:
        return self.task is not None

    def assign(self, record: TaskRecord, fault, *, checkpoint_dir: str,
               slow_per_step: float, exec_config: dict[str, Any],
               obs_config: dict[str, Any] | None = None) -> None:
        message: dict[str, Any] = {
            "cmd": "task", "spec": record.spec.to_json(),
            "attempt": record.attempts,
            "checkpoint_dir": checkpoint_dir,
            "slow_per_step": slow_per_step,
            "exec": exec_config,
        }
        if obs_config is not None:
            message["obs"] = obs_config
        if fault is not None:
            message["fault"] = {"kind": fault.kind, "at_step": fault.at_step}
        self.conn.send(message)
        record.attempts += 1
        record.state = TaskState.RUNNING
        self.task = record
        self.last_heartbeat = now()
        self.started_at = now()
        self.obs_t0 = obs.clock()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)
        self.conn.close()

    def shutdown(self) -> None:
        try:
            self.conn.send({"cmd": "shutdown"})
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=10.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        self.conn.close()


class Supervisor:
    """Run a campaign of tasks on a supervised worker pool.

    Parameters
    ----------
    tasks:
        Campaign members — :class:`TaskSpec` for a fresh campaign or
        :class:`TaskRecord` (e.g. from a loaded manifest) to resume;
        ``DONE``/``QUARANTINED`` records are kept as-is, everything
        else restarts from its latest checkpoint.
    checkpoint_dir:
        Directory holding per-task rotating checkpoints and the
        campaign manifest (:data:`~repro.runtime.tasks.MANIFEST_NAME`).
    n_workers:
        Worker-process pool size.
    deadline:
        Optional per-task-attempt wall-clock budget in seconds; an
        attempt exceeding it is killed and retried ("deadline").
    hang_timeout:
        Seconds of heartbeat silence after which a busy worker is
        declared hung and killed ("hang-timeout").
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` of process
        faults; they are assigned at :meth:`run` start and injected on
        first attempts only.  A plan with in-process rates, calls or
        checkpoint events is rejected.
    """

    def __init__(self, tasks: Sequence[TaskSpec | TaskRecord],
                 checkpoint_dir: str, *, n_workers: int = 2,
                 deadline: float | None = None, hang_timeout: float = 5.0,
                 fault_plan: FaultPlan | None = None):
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}")
        if fault_plan is not None and fault_plan.in_process_keys():
            raise ConfigurationError(
                f"fault key {fault_plan.in_process_keys()[0]!r} is an "
                "in-process fault: an ensemble injects only kill, hang, "
                "slow and corrupt (in-process faults need repro simulate)")
        self.records: list[TaskRecord] = []
        for task in tasks:
            record = (task if isinstance(task, TaskRecord)
                      else TaskRecord(spec=task))
            if record.state is TaskState.RUNNING:
                record.state = TaskState.PENDING  # interrupted: resume
            self.records.append(record)
        self.checkpoint_dir = checkpoint_dir
        self.n_workers = n_workers
        self.deadline = deadline
        self.hang_timeout = hang_timeout
        self.fault_plan = fault_plan
        self.manifest_path = os.path.join(checkpoint_dir, MANIFEST_NAME)

        self._failures = {r.spec.task_id: 0 for r in self.records}
        self._ready_at = {r.spec.task_id: 0.0 for r in self.records}
        self._records_by_id = {r.spec.task_id: r for r in self.records}
        self._draining = False
        self._next_worker_id = 0
        self._ctx = _mp_context()
        self._stop_event = self._ctx.Event()
        self.trace_id = _campaign_trace_id(
            [r.spec for r in self.records])

    # -- worker pool -----------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        handle = _WorkerHandle(self._next_worker_id, self._ctx,
                               self._stop_event)
        self._next_worker_id += 1
        return handle

    def _exec_config(self, pool_size: int) -> dict[str, Any]:
        """Per-worker execution context description.

        The configured worker budget is divided evenly between the
        ``pool_size`` workers actually spawned (never more than there
        are tasks), so co-resident tasks don't oversubscribe the machine
        (a ``serial`` context is one worker whatever the share).
        """
        from ..config import get_config
        cfg = get_config()
        share = max(1, cfg.resolved_workers() // pool_size)
        return {"backend": cfg.backend, "workers": share}

    def _obs_config(self) -> dict[str, Any] | None:
        """Worker observability config (``None`` when obs is off)."""
        trace = obs.tracing_enabled()
        metrics = obs.metrics_enabled()
        if not (trace or metrics):
            return None
        tracer = obs.get_tracer()
        return {"trace": trace, "metrics": metrics,
                "spool_dir": self.checkpoint_dir,
                "trace_id": self.trace_id,
                "max_events": (tracer.max_events if tracer is not None
                               else 1_000_000)}

    def _task_span(self, handle: _WorkerHandle, outcome: str) -> None:
        """Record the supervisor-side ``supervisor.task`` interval.

        The worker-side half of the correlation carries the same id
        as each event's ``task_id``; :func:`spans_for_task` joins the
        two in the merged timeline.
        """
        tracer = obs.get_tracer()
        if tracer is None or handle.task is None:
            return
        tracer.add_interval(
            "supervisor.task", handle.obs_t0,
            obs.clock() - handle.obs_t0,
            task=handle.task.spec.task_id, worker=handle.worker_id,
            attempt=handle.task.attempts - 1, outcome=outcome)

    def _replace_worker(self, handle: _WorkerHandle, reason: str,
                        report: SupervisorReport) -> _WorkerHandle | None:
        """Kill (if needed) and respawn a worker; requeue its task."""
        task_id = handle.task.spec.task_id if handle.task else None
        self._task_span(handle, reason)
        handle.kill()
        report.restarts.append(
            WorkerRestart(handle.worker_id, reason, task_id))
        self._manifest.worker_restarts[reason] = (
            self._manifest.worker_restarts.get(reason, 0) + 1)
        obs.inc("worker_restarts_total", reason=reason)
        obs.instant("supervisor.worker_restart",
                    worker=handle.worker_id, reason=reason,
                    task=-1 if task_id is None else task_id)
        if handle.task is not None:
            self._task_failed(handle.task, reason, report)
        if len(report.restarts) > MAX_WORKER_RESTARTS:
            raise StepFailure(
                FailureKind.UNKNOWN,
                f"worker restart budget exhausted "
                f"({MAX_WORKER_RESTARTS}); aborting campaign")
        if self._draining:
            return None  # no respawns while draining
        return self._spawn()

    # -- task lifecycle --------------------------------------------------

    def _task_failed(self, record: TaskRecord, reason: str,
                     report: SupervisorReport,
                     failure: dict[str, Any] | None = None) -> None:
        """Route a failed attempt: backoff retry or quarantine."""
        task_id = record.spec.task_id
        record.failure = failure or {"kind": "process-fault",
                                     "message": reason,
                                     "attempt": record.attempts - 1}
        if self.fault_plan is not None:
            self.fault_plan.observe(task_id, reason)
        self._failures[task_id] += 1
        if self._failures[task_id] >= MAX_TASK_FAILURES:
            record.state = TaskState.QUARANTINED
            obs.instant("supervisor.quarantine", task=task_id)
            self._save_manifest()
            return
        record.state = TaskState.PENDING
        delay = retry_delay(max(0, record.attempts - 1), seed=task_id)
        self._ready_at[task_id] = now() + delay
        self._save_manifest()

    def _task_done(self, record: TaskRecord, message: dict[str, Any],
                   report: SupervisorReport) -> bool:
        """Verify and commit a ``done`` message; False = corrupt."""
        digest = positions_digest(message["positions"])
        if digest != message["digest"]:
            return False
        record.state = TaskState.DONE
        record.completed_step = message["completed_step"]
        record.digest = digest
        record.checkpoint = record.spec.checkpoint_path(self.checkpoint_dir)
        record.failure = None
        obs.observe("supervisor_task_retries", record.attempts - 1)
        self._save_manifest()
        return True

    def _assignable(self) -> TaskRecord | None:
        """Next pending task whose backoff delay has elapsed."""
        t = now()
        for record in self.records:
            if (record.state is TaskState.PENDING
                    and self._ready_at[record.spec.task_id] <= t):
                return record
        return None

    def _pending(self) -> list[TaskRecord]:
        return [r for r in self.records if r.state is TaskState.PENDING]

    def _save_manifest(self) -> None:
        self._manifest.save(self.manifest_path)

    # -- event loop ------------------------------------------------------

    def run(self, shutdown: GracefulShutdown | None = None
            ) -> SupervisorReport:
        """Drive the campaign to completion (or drain); blocking.

        With ``shutdown`` supplied, a delivered SIGTERM/SIGINT turns
        the loop into a drain: running tasks stop at their next block
        boundary, nothing new is assigned, and the saved manifest is
        resumable.
        """
        self._manifest = CampaignManifest(
            tasks=self.records,
            fault_spec=(None if self.fault_plan is None
                        else self.fault_plan.to_spec()))
        report = SupervisorReport(manifest=self._manifest,
                                  fault_plan=self.fault_plan)
        if self.fault_plan is not None and not self.fault_plan.faults:
            self.fault_plan.assign(
                [r.spec.task_id for r in self._pending()],
                {r.spec.task_id: r.spec.n_steps for r in self.records})
        self._save_manifest()

        workers = [self._spawn()
                   for _ in range(min(self.n_workers,
                                      max(1, len(self._pending()))))]
        with obs.span("supervisor.run", tasks=len(self.records),
                      workers=len(workers)):
            try:
                self._loop(workers, report, shutdown)
            finally:
                for handle in workers:
                    handle.shutdown()
                self._manifest.drained = report.drained = self._draining
                self._save_manifest()
        # collect *after* the supervisor.run span closed so the merged
        # timeline contains it; workers have flushed their spools
        if obs.tracing_enabled() or obs.metrics_enabled():
            report.collection = collect_campaign(
                self.checkpoint_dir,
                supervisor_tracer=obs.get_tracer(),
                supervisor_registry=obs.get_metrics(),
                trace_id=self.trace_id)
            report.collection.write_defaults(self.checkpoint_dir)
        return report

    def request_drain(self) -> None:
        """Stop assigning work and drain workers at block boundaries."""
        if not self._draining:
            self._draining = True
            self._stop_event.set()
            obs.instant("supervisor.drain_requested")

    def _loop(self, workers: list[_WorkerHandle],
              report: SupervisorReport,
              shutdown: GracefulShutdown | None) -> None:
        while True:
            if (shutdown is not None and shutdown.triggered
                    and not self._draining):
                self.request_drain()

            # assign ready tasks to idle workers
            if not self._draining:
                for handle in workers:
                    if handle.busy:
                        continue
                    record = self._assignable()
                    if record is None:
                        break
                    fault = None
                    if self.fault_plan is not None:
                        fault = self.fault_plan.fault_for(
                            record.spec.task_id, record.attempts)
                    handle.assign(
                        record, fault, checkpoint_dir=self.checkpoint_dir,
                        slow_per_step=(self.fault_plan.slow_per_step
                                       if self.fault_plan else 0.0),
                        obs_config=self._obs_config(),
                        exec_config=self._exec_config(len(workers)))

            busy = [h for h in workers if h.busy]
            if not busy and (self._draining or not self._pending()):
                return
            if not busy and self._pending():
                # every pending task is in a backoff window; idle-wait
                time.sleep(POLL_INTERVAL)
                continue

            sources: list[Any] = [h.conn for h in workers]
            sources += [h.process.sentinel for h in workers]
            ready = connection.wait(sources, timeout=POLL_INTERVAL)

            for handle in list(workers):
                if handle.conn in ready:
                    self._drain_conn(handle, report)
                if (not handle.process.is_alive()
                        and handle.process.sentinel in ready):
                    replacement = self._replace_worker(
                        handle, "worker-death", report)
                    workers.remove(handle)
                    if replacement is not None:
                        workers.append(replacement)

            self._watchdog(workers, report)

    def _drain_conn(self, handle: _WorkerHandle,
                    report: SupervisorReport) -> None:
        """Consume every message queued on one worker's pipe."""
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                return  # death handled via the process sentinel
            handle.last_heartbeat = now()
            kind = message.get("msg")
            record = handle.task
            if kind in ("heartbeat", "ready"):
                continue
            if record is None:
                continue
            if kind == "checkpoint":
                record.completed_step = message["completed_step"]
                record.checkpoint = message["checkpoint"]
            elif kind == "done":
                ok = self._task_done(record, message, report)
                self._task_span(handle, "done" if ok else "corrupt-result")
                handle.task = None
                if not ok:
                    self._task_failed(record, "corrupt-result", report)
            elif kind == "drained":
                self._task_span(handle, "drained")
                handle.task = None
                record.state = TaskState.PENDING
                record.completed_step = message["completed_step"]
                record.checkpoint = message["checkpoint"]
                self._save_manifest()
            elif kind == "failed":
                self._task_span(handle, "failed")
                handle.task = None
                self._task_failed(record, "step-failure", report,
                                  failure=message["failure"])

    def _watchdog(self, workers: list[_WorkerHandle],
                  report: SupervisorReport) -> None:
        """Kill hung (silent) and over-deadline workers."""
        t = now()
        max_lag = 0.0
        for handle in list(workers):
            if not handle.busy or not handle.process.is_alive():
                continue
            lag = t - handle.last_heartbeat
            max_lag = max(max_lag, lag)
            reason = None
            if lag > self.hang_timeout:
                reason = "hang-timeout"
            elif (self.deadline is not None
                    and t - handle.started_at > self.deadline):
                reason = "deadline"
            if reason is not None:
                replacement = self._replace_worker(handle, reason, report)
                workers.remove(handle)
                if replacement is not None:
                    workers.append(replacement)
        report.max_heartbeat_lag = max(report.max_heartbeat_lag, max_lag)
        # running max, not instantaneous: the gauge reports the worst
        # heartbeat silence the campaign ever saw (the quantity the
        # watchdog thresholds against)
        obs.set_gauge("supervisor_heartbeat_lag_seconds",
                      report.max_heartbeat_lag)
