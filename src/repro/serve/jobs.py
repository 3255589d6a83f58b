"""Long-running ``simulate`` jobs dispatched to the ensemble Supervisor.

A served simulation is exactly one single-task campaign of the
:mod:`repro.runtime` machinery: the :class:`SystemSpec` plus the
request's ``seed``/``steps`` deterministically define a
:class:`~repro.runtime.tasks.TaskSpec` (PME parameters are tuned
explicitly up front, so the spec — not a hidden default — pins the
operator), and a :class:`~repro.runtime.supervisor.Supervisor` drives
it in worker processes with the full fault story: block-aligned
checkpoints, restart-with-backoff, hang watchdog, graceful drain.

Everything the runtime guarantees transfers to the service for free:

* **progress streaming** — the supervisor's task record advances
  ``completed_step`` on every checkpoint message; an asyncio poller
  publishes those advances to every subscribed client as ``progress``
  events;
* **graceful cancellation** — ``cancel`` (or the last interested
  client disconnecting) calls
  :meth:`~repro.runtime.supervisor.Supervisor.request_drain`; the
  task stops at the next ``lambda_RPY`` block boundary with a durable
  checkpoint, and a later identical request *resumes* from it
  bit-identically instead of starting over;
* **deduplication** — jobs are keyed by (fingerprint, seed, steps);
  concurrent identical requests subscribe to the one running job.

The terminal result (the final-position digest) is what lands in the
service's :class:`~repro.serve.cache.ResultCache` — its bytes equal a
direct :class:`~repro.core.simulation.Simulation` run of the same
recipe, the contract the test suite pins.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any

from .. import obs
from ..errors import ConfigurationError
from ..resilience import classify_exception
from ..runtime.supervisor import Supervisor
from ..runtime.tasks import (
    MANIFEST_NAME,
    CampaignManifest,
    TaskSpec,
    TaskState,
)
from ..utils.validation import require
from .protocol import SystemSpec

__all__ = ["SimulateJob", "JobManager", "task_spec_for"]

#: Seconds between polls of a running job's progress.
PROGRESS_POLL = 0.05


def task_spec_for(spec: SystemSpec, seed: int, steps: int) -> TaskSpec:
    """The deterministic single-task campaign spec of a request.

    PME parameters are tuned here (not left to the integrator's
    lazy default) so the task spec fully determines the operator —
    the served digest must be reproducible from the spec alone.
    """
    from ..pme.tuning import tune_parameters
    from ..systems.suspension import make_suspension

    suspension = make_suspension(spec.n, spec.phi, seed=spec.system_seed)
    params = tune_parameters(
        suspension.n, suspension.box, target_ep=spec.e_p, p=spec.p,
        fluid=suspension.fluid)
    return TaskSpec(task_id=0, n=spec.n, phi=spec.phi, n_steps=steps,
                    seed=seed, system_seed=spec.system_seed, dt=spec.dt,
                    lambda_rpy=spec.lambda_rpy, e_k=spec.e_k, pme=params,
                    forces=spec.forces)


class SimulateJob:
    """One running (or finished) served simulation."""

    def __init__(self, key: str, spec: SystemSpec, seed: int, steps: int,
                 job_dir: str, executor):
        self.key = key
        self.spec = spec
        self.seed = seed
        self.steps = steps
        self.job_dir = job_dir
        self._executor = executor
        self.supervisor: Supervisor | None = None
        self.state = "pending"
        self.cancelled = False
        self._subscribers: list[asyncio.Queue] = []
        self._done: asyncio.Future | None = None
        self._runner: asyncio.Task | None = None

    # -- subscription ----------------------------------------------------

    @property
    def subscribers(self) -> int:
        return len(self._subscribers)

    def subscribe(self) -> asyncio.Queue:
        """A queue of ``progress`` events for one interested client."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    def _publish(self, event: dict[str, Any]) -> None:
        for queue in self._subscribers:
            queue.put_nowait(event)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Schedule the campaign on the loop.

        Never awaits: a job is joinable (dedup) from the moment it is
        registered, so it always owns a runner that resolves ``wait()``
        — whatever happens to the request that launched it.
        """
        loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        self._runner = loop.create_task(self._drive())

    async def _prepare(self) -> None:
        """Build the campaign (resuming a drained one if present)."""
        loop = asyncio.get_running_loop()
        manifest_path = os.path.join(self.job_dir, MANIFEST_NAME)
        records: Any = None
        if os.path.exists(manifest_path):
            manifest = CampaignManifest.load(manifest_path)
            if (manifest.resumable and len(manifest.tasks) == 1
                    and manifest.tasks[0].spec.n_steps == self.steps
                    and manifest.tasks[0].spec.seed == self.seed):
                records = manifest.tasks  # drained earlier: resume
        if records is None:
            task = await loop.run_in_executor(
                self._executor, task_spec_for,
                self.spec, self.seed, self.steps)
            records = [task]
        self.supervisor = Supervisor(records, self.job_dir, n_workers=1)
        if self.cancelled:          # abandoned while still pending
            self.supervisor.request_drain()
        self.state = "running"

    async def _drive(self) -> None:
        require(self._done is not None, "job was not started")
        loop = asyncio.get_running_loop()
        last_step = -1
        try:
            await self._prepare()
            record = self.supervisor.records[0]
            run = loop.run_in_executor(self._executor, self.supervisor.run)
            while not run.done():
                step = record.completed_step
                if step != last_step and step > 0:
                    last_step = step
                    self._publish({"event": "progress", "step": step,
                                   "of": self.steps})
                await asyncio.wait(
                    [run], timeout=PROGRESS_POLL,
                    return_when=asyncio.FIRST_COMPLETED)
            report = run.result()
        except Exception as exc:  # noqa: RPR006 - job boundary: the
            # classified failure becomes the terminal result every
            # subscribed client receives as an error response
            kind = classify_exception(exc)
            self.state = "failed"
            result: dict[str, Any] = {
                "state": "failed", "kind": kind.value,
                "message": str(exc)}
            self._publish({"event": "end", **result})
            self._done.set_result(result)
            return
        step = record.completed_step
        if step != last_step and step > 0:
            # the run can finish between polls: publish the terminal
            # step so subscribers always see the final progress
            self._publish({"event": "progress", "step": step,
                           "of": self.steps})
        result = self._terminal_result(report, record)
        self.state = str(result["state"])
        self._publish({"event": "end", **result})
        self._done.set_result(result)

    def _terminal_result(self, report: Any,
                         record: Any) -> dict[str, Any]:
        if record.state is TaskState.DONE:
            return {"state": "done", "digest": record.digest,
                    "completed_step": record.completed_step,
                    "steps": self.steps}
        if report.drained:
            return {"state": "drained",
                    "completed_step": record.completed_step,
                    "steps": self.steps, "resumable": True}
        failure = record.failure or {}
        return {"state": "failed",
                "kind": failure.get("kind", "unknown"),
                "message": failure.get("message", "task quarantined"),
                "completed_step": record.completed_step}

    async def wait(self) -> dict[str, Any]:
        """The terminal result; shields the job from caller cancel."""
        require(self._done is not None, "job was not started")
        return await asyncio.shield(self._done)

    def cancel(self) -> None:
        """Request a graceful drain at the next block boundary."""
        self.cancelled = True
        if self.supervisor is not None:
            self.supervisor.request_drain()
        obs.inc("serve_jobs_cancelled_total")

    def to_json(self) -> dict[str, Any]:
        step = (0 if self.supervisor is None
                else self.supervisor.records[0].completed_step)
        return {"key": self.key[:24], "state": self.state,
                "steps": self.steps, "completed_step": step,
                "subscribers": self.subscribers,
                "cancelled": self.cancelled}


class JobManager:
    """Owns the active simulate jobs (dedup + concurrency bound)."""

    def __init__(self, work_dir: str, executor, *, max_jobs: int = 2):
        if max_jobs < 1:
            raise ConfigurationError(
                f"max_jobs must be >= 1, got {max_jobs}")
        self.work_dir = work_dir
        self._executor = executor
        self.max_jobs = max_jobs
        self.active: dict[str, SimulateJob] = {}
        self.started = 0
        self.deduplicated = 0

    def get(self, key: str) -> SimulateJob | None:
        """The running job for a key (dedup join), if any."""
        job = self.active.get(key)
        if job is not None:
            self.deduplicated += 1
        return job

    def launch(self, key: str, spec: SystemSpec, seed: int,
               steps: int) -> SimulateJob:
        """Start a new job; the caller must have admission-checked."""
        job_dir = os.path.join(self.work_dir,
                               f"{key[:16]}-{seed}-{steps}")
        os.makedirs(job_dir, exist_ok=True)
        job = SimulateJob(key, spec, seed, steps, job_dir, self._executor)
        self.active[key] = job
        self.started += 1
        obs.set_gauge("serve_active_jobs", len(self.active))
        job.start()
        return job

    def finish(self, key: str) -> None:
        """Forget a terminal job (its result lives in the cache now)."""
        self.active.pop(key, None)
        obs.set_gauge("serve_active_jobs", len(self.active))

    async def drain_all(self) -> None:
        """Gracefully drain every active job (server shutdown)."""
        for job in list(self.active.values()):
            job.cancel()
        for job in list(self.active.values()):
            if job._done is not None:
                await job.wait()
        self.active.clear()
        obs.set_gauge("serve_active_jobs", 0)

    def stats(self) -> dict[str, Any]:
        return {"active": len(self.active), "max_jobs": self.max_jobs,
                "started": self.started,
                "deduplicated": self.deduplicated,
                "jobs": [job.to_json() for job in self.active.values()]}
