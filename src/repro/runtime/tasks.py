"""Ensemble task descriptions and the resumable campaign manifest.

A *campaign* is an ensemble of independent BD trajectories (the
paper's Fig. 3 diffusion statistics average dozens of them) sharded
across worker processes by the :mod:`~repro.runtime.supervisor`.  Each
member is described by a :class:`TaskSpec` — everything a worker needs
to build and run the simulation deterministically — and tracked in a
:class:`TaskRecord` whose lifecycle the supervisor drives.

The :class:`CampaignManifest` serializes the whole campaign (specs,
states, attempt counts, checkpoint paths, result digests, structured
failure reports) to JSON with the same atomic-rename + directory-fsync
discipline as checkpoints, so a supervisor that is killed — or drains
on SIGTERM — leaves behind everything ``repro ensemble --resume``
needs to continue: finished tasks keep their digests, interrupted
tasks resume from their latest block-aligned checkpoint.

Determinism contract: a task's trajectory depends only on its spec
(seeds, steps, physics parameters) — never on which worker ran it, how
many workers the pool had, or whether it was resumed from a checkpoint
— so a zero-fault campaign produces bit-identical ``digest`` values
for any worker count, fresh or resumed (tested in
``tests/test_runtime.py``).
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from ..core.checkpoint import _write_durably
from ..errors import ConfigurationError
from ..obs.collect import TraceContext
from ..pme.operator import PMEParams
from ..utils.validation import as_positions

__all__ = ["TaskSpec", "TaskState", "TaskRecord", "CampaignManifest",
           "make_ensemble", "positions_digest"]

_MANIFEST_VERSION = 1


def positions_digest(positions: np.ndarray) -> str:
    """SHA-256 hex digest of a position array's exact bytes.

    The bit-identity currency of the ensemble runtime: two runs agree
    iff their digests agree, with no tolerance haggling.  Finiteness is
    deliberately not checked — the supervisor digests *received*
    payloads precisely to detect corruption, which may well contain
    NaN bit patterns.
    """
    arr = as_positions(positions, check_finite=False)
    return hashlib.sha256(arr.tobytes()).hexdigest()


@dataclass(frozen=True)
class TaskSpec:
    """One ensemble member: a fully deterministic simulation recipe.

    Attributes
    ----------
    task_id:
        Stable index within the campaign (names the checkpoint file).
    n, phi:
        Particle count and volume fraction of the suspension.
    n_steps:
        Total BD steps the task must complete.
    seed:
        Brownian-noise seed of the integrator.
    system_seed:
        Seed of the initial configuration generator.
    dt, lambda_rpy, e_k:
        Integrator parameters (checkpoints are written every
        ``lambda_rpy`` steps — the block-aligned, bit-exact choice).
    pme:
        Explicit :class:`~repro.pme.operator.PMEParams`; ``None``
        auto-tunes (deterministic for a given system).
    forces:
        Include the paper's repulsive contact force field.
    trace:
        Supervisor-assigned :class:`~repro.obs.collect.TraceContext`
        stamped on the *wire copy* of the spec when campaign tracing
        is on (never persisted in the manifest); carries the campaign
        ``trace_id`` into the worker so cross-process spans stay
        correlatable.  Deliberately excluded from the determinism
        contract — a traced and an untraced run of the same spec are
        bit-identical.
    """

    task_id: int
    n: int
    phi: float
    n_steps: int
    seed: int
    system_seed: int
    dt: float = 1e-3
    lambda_rpy: int = 10
    e_k: float = 1e-2
    pme: PMEParams | None = None
    forces: bool = True
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ConfigurationError(
                f"n_steps must be >= 1, got {self.n_steps}")
        if self.lambda_rpy < 1:
            raise ConfigurationError(
                f"lambda_rpy must be >= 1, got {self.lambda_rpy}")

    def checkpoint_path(self, directory: str) -> str:
        """The task's rotating checkpoint file inside ``directory``."""
        return os.path.join(directory, f"task-{self.task_id:04d}.ckpt.npz")

    def to_json(self) -> dict[str, Any]:
        d = asdict(self)
        if self.trace is not None:
            d["trace"] = self.trace.to_json()
        else:
            # keep manifests byte-stable with the pre-trace layout
            d.pop("trace", None)
        return d

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> TaskSpec:
        d = dict(d)
        if d.get("pme") is not None:
            pme = dict(d["pme"])
            # manifests written while PMEParams had a kernel option
            # carry "kernel": "rpy", the one tensor there is now
            kernel = pme.pop("kernel", "rpy")
            if kernel != "rpy":
                raise ConfigurationError(
                    f"unsupported hydrodynamic kernel {kernel!r} in task "
                    f"{d.get('task_id')}: only the RPY tensor is simulated")
            d["pme"] = PMEParams(**pme)
        if d.get("trace") is not None:
            d["trace"] = TraceContext.from_json(d["trace"])
        else:
            d.pop("trace", None)
        return cls(**d)


class TaskState(str, enum.Enum):
    """Lifecycle of a campaign task, driven by the supervisor."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    #: Failed too many attempts; carries a structured failure report
    #: instead of a result.
    QUARANTINED = "quarantined"


@dataclass
class TaskRecord:
    """Mutable supervisor-side state of one task.

    ``completed_step`` is the step of the latest durable block-aligned
    checkpoint (0 = no checkpoint; restart from scratch), which is the
    resume point after a worker death or a campaign ``--resume``.
    """

    spec: TaskSpec
    state: TaskState = TaskState.PENDING
    attempts: int = 0
    completed_step: int = 0
    checkpoint: str | None = None
    digest: str | None = None
    #: Structured report of the last failure (kind, reason, message).
    failure: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        return {"spec": self.spec.to_json(), "state": self.state.value,
                "attempts": self.attempts,
                "completed_step": self.completed_step,
                "checkpoint": self.checkpoint, "digest": self.digest,
                "failure": self.failure}

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> TaskRecord:
        return cls(spec=TaskSpec.from_json(d["spec"]),
                   state=TaskState(d["state"]), attempts=d["attempts"],
                   completed_step=d["completed_step"],
                   checkpoint=d.get("checkpoint"), digest=d.get("digest"),
                   failure=d.get("failure"))


@dataclass
class CampaignManifest:
    """The on-disk, resumable record of one ensemble campaign."""

    tasks: list[TaskRecord] = field(default_factory=list)
    #: The --inject-faults spec the campaign ran with (reproducibility).
    fault_spec: str | None = None
    #: True when the campaign ended in a graceful drain (resumable).
    drained: bool = False
    #: Worker restarts observed, as ``{"reason": count}``.
    worker_restarts: dict[str, int] = field(default_factory=dict)

    @property
    def resumable(self) -> bool:
        """Whether any task still has work left."""
        return any(t.state not in (TaskState.DONE, TaskState.QUARANTINED)
                   for t in self.tasks)

    def counts(self) -> dict[str, int]:
        """Tally of task states (manifest summary line)."""
        out: dict[str, int] = {}
        for t in self.tasks:
            out[t.state.value] = out.get(t.state.value, 0) + 1
        return out

    def save(self, path: str | os.PathLike) -> None:
        """Atomically write the manifest (tmp + rename + dir fsync)."""
        payload = {"version": _MANIFEST_VERSION,
                   "fault_spec": self.fault_spec, "drained": self.drained,
                   "worker_restarts": self.worker_restarts,
                   "counts": self.counts(),
                   "tasks": [t.to_json() for t in self.tasks]}
        _write_durably(path, lambda fh: json.dump(payload, fh, indent=1),
                       prefix=".manifest-", mode="w")

    @classmethod
    def load(cls, path: str | os.PathLike) -> CampaignManifest:
        with open(path) as fh:
            payload = json.load(fh)
        version = payload.get("version")
        if version != _MANIFEST_VERSION:
            raise ConfigurationError(
                f"unsupported campaign manifest version {version!r}")
        return cls(tasks=[TaskRecord.from_json(t) for t in payload["tasks"]],
                   fault_spec=payload.get("fault_spec"),
                   drained=payload.get("drained", False),
                   worker_restarts=payload.get("worker_restarts", {}))


def make_ensemble(n_tasks: int, *, n: int, phi: float, n_steps: int,
                  seed: int = 0, dt: float = 1e-3, lambda_rpy: int = 10,
                  e_k: float = 1e-2, pme: PMEParams | None = None,
                  forces: bool = True) -> list[TaskSpec]:
    """Specs of an ``n_tasks``-member ensemble with derived seeds.

    Per-task noise and configuration seeds come from one
    ``SeedSequence`` expansion of ``seed``, so the ensemble is fully
    reproducible from the campaign seed while its members stay
    statistically independent.
    """
    if n_tasks < 1:
        raise ConfigurationError(f"n_tasks must be >= 1, got {n_tasks}")
    state = np.random.SeedSequence(seed).generate_state(2 * n_tasks)
    return [TaskSpec(task_id=i, n=n, phi=phi, n_steps=n_steps,
                     seed=int(state[2 * i]), system_seed=int(state[2 * i + 1]),
                     dt=dt, lambda_rpy=lambda_rpy, e_k=e_k, pme=pme,
                     forces=forces)
            for i in range(n_tasks)]
