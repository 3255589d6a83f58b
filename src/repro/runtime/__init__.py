"""Supervised multi-process ensemble runtime.

The paper's production experiments (Fig. 3 diffusion statistics,
Fig. 8 scaling) average ensembles of independent BD trajectories.
This subpackage runs such an ensemble as a *campaign* on a supervised
pool of worker processes that survives worker crashes, hangs,
slowdowns and corrupted results:

* :mod:`~repro.runtime.tasks` — :class:`TaskSpec` / :class:`TaskRecord`
  and the resumable :class:`CampaignManifest`,
* :mod:`~repro.runtime.supervisor` — the :class:`Supervisor` event
  loop: heartbeat watchdog, deadlines, backoff retries, quarantine of
  a task that keeps failing, graceful drain,
* :mod:`~repro.runtime.worker` — the worker-process entry point
  (checkpointed stepping, heartbeats, fault execution),
* :mod:`~repro.runtime.signals` — :class:`GracefulShutdown`, shared
  with ``repro simulate --max-wall-time``.

Process faults (kill/hang/slow/corrupt) are planned by
:class:`~repro.resilience.faults.FaultPlan`, the one fault-injection
engine.  See ``docs/robustness.md`` ("Supervision tree") for the state
machine and protocol.
"""

from .signals import GracefulShutdown
from .supervisor import Supervisor, SupervisorReport, WorkerRestart
from .tasks import (
    MANIFEST_NAME,
    CampaignManifest,
    TaskRecord,
    TaskSpec,
    TaskState,
    make_ensemble,
    positions_digest,
)

__all__ = [
    "TaskSpec", "TaskRecord", "TaskState", "CampaignManifest",
    "MANIFEST_NAME",
    "make_ensemble", "positions_digest",
    "Supervisor", "SupervisorReport", "WorkerRestart",
    "GracefulShutdown",
]
