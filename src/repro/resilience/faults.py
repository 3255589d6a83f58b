"""Deterministic fault injection for soak-testing the recovery layers.

One seeded :class:`FaultPlan` drives faults at both levels a long BD
campaign fails at:

* **in-process sites** — force evaluation, the PME mobility operator,
  the Brownian displacement solver and checkpoint I/O — are wrapped by
  :func:`install_faults` and :func:`faulty_checkpoint_save`.  The
  same plan always fires at the same call indices, so every recovery
  path can be exercised by a regression test and every fired fault
  accounted for against the run's
  :class:`~repro.resilience.policy.RecoveryLog`;
* **process faults** of the supervised ensemble runtime — ``kill``
  (SIGKILL mid-task), ``hang`` (no progress, no heartbeats), ``slow``
  (heartbeats continue, every step ``slow_per_step`` seconds late) and
  ``corrupt`` (result payload flipped after its digest was taken) — are
  assigned to tasks by :meth:`FaultPlan.assign`, executed by the worker
  on a task's first attempt only, and reconciled by the
  :class:`~repro.runtime.supervisor.Supervisor` against the supervision
  event each must surface as (:data:`EXPECTED_OBSERVATIONS`).

Exposed on the command line as ``--inject-faults SPEC`` (see
:meth:`FaultPlan.from_spec`): ``repro simulate`` injects the in-process
keys, ``repro ensemble`` the process keys, and each rejects the other's.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from ..core.brownian import KrylovBrownianGenerator
from ..core.checkpoint import save_checkpoint
from ..core.forces import ForceField
from ..errors import ConfigurationError, ConvergenceError
from .failures import FailureKind
from .policy import RecoveryLog

__all__ = ["FaultPlan", "Fault", "FaultyForceField", "FaultyOperator",
           "FaultyKrylovGenerator", "faulty_checkpoint_save",
           "install_faults"]

#: In-process sites; the order seeds their random substreams.
SITES = ("force", "operator", "brownian", "brownian-nan", "checkpoint")

#: Process fault kinds; the order :meth:`FaultPlan.assign` draws them in.
PROCESS_KINDS = ("kill", "hang", "slow", "corrupt")

#: Supervisor failure reasons that legitimately account for each
#: process kind.  ``hang`` may surface as a deadline kill when the task
#: deadline is shorter than the heartbeat watchdog, and vice versa for
#: ``slow``.
EXPECTED_OBSERVATIONS = {
    "kill": ("worker-death",),
    "hang": ("hang-timeout", "deadline"),
    "slow": ("deadline", "hang-timeout"),
    "corrupt": ("corrupt-result",),
}

#: ``--inject-faults`` rate key -> :class:`FaultPlan` field.
_RATE_KEYS = {"lanczos": "lanczos_failure_rate",
              "nan-force": "nan_force_rate",
              "nan-operator": "nan_operator_rate",
              "nan-brownian": "nan_brownian_rate"}

_CALL_FIELDS = ("force_calls", "operator_calls", "brownian_calls",
                "brownian_nan_calls")


@dataclass
class Fault:
    """One fault a plan fired (in-process) or assigned (process)."""

    #: An in-process site from :data:`SITES`, or ``"task"``.
    site: str
    kind: str
    #: Call index at the site (write index for ``checkpoint``); the
    #: task id for a process fault.
    index: int
    #: Step within the task at which kill/hang/slow engage.
    at_step: int | None = None
    #: Supervisor failure reason matched to a process fault (``None``
    #: until observed).
    observed: str | None = None

    def accounted(self) -> bool:
        """True once the supervisor matched this fault to its event."""
        return self.observed in EXPECTED_OBSERVATIONS.get(self.kind, ())


@dataclass
class FaultPlan:
    """Seeded plan deciding which calls and which tasks fault.

    Each in-process site keeps its own call counter and its own random
    substream ``default_rng([seed, i])``, so injection at one site never
    perturbs another's schedule, and a recovery *retry* (which advances
    the counter) deterministically sees a clean call.  Process faults
    are drawn from ``default_rng(seed)`` by :meth:`assign`.

    Attributes
    ----------
    seed:
        Master seed of every draw.
    nan_force_rate, nan_operator_rate, lanczos_failure_rate,
    nan_brownian_rate:
        Per-call firing probabilities of the rate-driven sites.
    force_calls, operator_calls, brownian_calls, brownian_nan_calls:
        Explicit 0-based call indices that always fire (for targeted
        tests), in addition to the rates.
    checkpoint_events:
        Map of 0-based checkpoint *write* index to ``"kill"``,
        ``"truncate"`` or ``"bitflip"``.
    counts:
        Process faults to assign per kind, e.g. ``{"kill": 2}``; each
        faulted task receives exactly one.
    slow_per_step:
        Seconds of per-step delay a ``slow`` fault injects.
    """

    seed: int = 0
    nan_force_rate: float = 0.0
    nan_operator_rate: float = 0.0
    lanczos_failure_rate: float = 0.0
    nan_brownian_rate: float = 0.0
    force_calls: tuple[int, ...] = ()
    operator_calls: tuple[int, ...] = ()
    brownian_calls: tuple[int, ...] = ()
    brownian_nan_calls: tuple[int, ...] = ()
    checkpoint_events: dict[int, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    slow_per_step: float = 0.1
    #: Every fault fired or assigned so far, in order.
    faults: list[Fault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._counters = dict.fromkeys(SITES, 0)
        self._rngs = {site: np.random.default_rng([self.seed, i])
                      for i, site in enumerate(SITES)}
        self._explicit = {
            "force": frozenset(self.force_calls),
            "operator": frozenset(self.operator_calls),
            "brownian": frozenset(self.brownian_calls),
            "brownian-nan": frozenset(self.brownian_nan_calls),
            "checkpoint": frozenset(),
        }
        self._rates = {
            "force": self.nan_force_rate,
            "operator": self.nan_operator_rate,
            "brownian": self.lanczos_failure_rate,
            "brownian-nan": self.nan_brownian_rate,
            "checkpoint": 0.0,
        }
        for kind in self.checkpoint_events.values():
            if kind not in ("kill", "truncate", "bitflip"):
                raise ConfigurationError(
                    f"unknown checkpoint event {kind!r}; "
                    "use kill, truncate or bitflip")
        for kind, count in self.counts.items():
            if kind not in PROCESS_KINDS:
                raise ConfigurationError(
                    f"unknown process fault kind {kind!r}; "
                    f"use one of {', '.join(PROCESS_KINDS)}")
            if count < 0:
                raise ConfigurationError(
                    f"fault count must be >= 0, got {kind}={count}")

    # -- in-process sites ------------------------------------------------

    def fire(self, site: str, kind: str) -> bool:
        """Advance ``site``'s counter; ``True`` if a fault fires now.

        The random draw is made on every call (fired or not) so the
        schedule depends only on the call index, never on what earlier
        injections did to the simulation.
        """
        index = self._counters[site]
        self._counters[site] += 1
        hit = self._rngs[site].random() < self._rates[site]
        if index in self._explicit[site]:
            hit = True
        if hit:
            self.faults.append(Fault(site, kind, index))
        return hit

    def checkpoint_event(self, write_index: int) -> str | None:
        """The event scheduled for checkpoint write ``write_index``."""
        event = self.checkpoint_events.get(write_index)
        if event is not None:
            self.faults.append(Fault("checkpoint", event, write_index))
        return event

    def count(self, site: str) -> int:
        """Number of faults fired so far at ``site``."""
        return sum(1 for f in self.faults if f.site == site)

    def in_process_keys(self) -> list[str]:
        """The configured in-process keys (rates, calls, ``ckpt``)."""
        keys = [key for key, name in _RATE_KEYS.items()
                if getattr(self, name)]
        keys += [name for name in _CALL_FIELDS if getattr(self, name)]
        if self.checkpoint_events:
            keys.append("ckpt")
        return keys

    # -- process faults --------------------------------------------------

    def assign(self, task_ids: list[int],
               n_steps_of: dict[int, int]) -> list[Fault]:
        """Assign the planned process faults to tasks and steps.

        Tasks are drawn without replacement from a seeded shuffle, so
        the assignment is a pure function of ``(seed, counts,
        task_ids)``.  Fault steps land in the middle half of each
        task's step range (late enough that a checkpoint usually
        exists, early enough that work remains to resume).  Replaces
        any earlier assignment.
        """
        total = sum(self.counts.values())
        if total > len(task_ids):
            raise ConfigurationError(
                f"cannot inject {total} process faults into "
                f"{len(task_ids)} tasks (one fault per task)")
        rng = np.random.default_rng(self.seed)
        order = [task_ids[i] for i in rng.permutation(len(task_ids))]
        self.faults = []
        cursor = 0
        for kind in PROCESS_KINDS:  # fixed kind order keeps the draw stable
            for _ in range(self.counts.get(kind, 0)):
                task_id = order[cursor]
                cursor += 1
                steps = n_steps_of[task_id]
                lo, hi = max(1, steps // 4), max(2, (3 * steps) // 4)
                at_step = int(rng.integers(lo, hi))
                self.faults.append(Fault("task", kind, task_id, at_step))
        return self.faults

    def fault_for(self, task_id: int, attempt: int) -> Fault | None:
        """The process fault to inject into this attempt (attempt 0 only)."""
        if attempt != 0:
            return None
        for fault in self.faults:
            if fault.site == "task" and fault.index == task_id:
                return fault
        return None

    def observe(self, task_id: int, reason: str) -> Fault | None:
        """Record that a supervision event accounted for a process fault."""
        for fault in self.faults:
            if (fault.site == "task" and fault.index == task_id
                    and fault.observed is None):
                fault.observed = reason
                return fault
        return None

    def unaccounted(self) -> list[Fault]:
        """Process faults not (correctly) matched to an event yet."""
        return [f for f in self.faults
                if f.site == "task" and not f.accounted()]

    # -- the --inject-faults grammar -------------------------------------

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (campaign-manifest provenance).

        Explicit call indices have no spec key and are not rendered.
        """
        parts = [f"seed={self.seed}"]
        parts += [f"{key}={getattr(self, name)}"
                  for key, name in _RATE_KEYS.items() if getattr(self, name)]
        parts += [f"ckpt={event}@{index}"
                  for index, event in sorted(self.checkpoint_events.items())]
        parts += [f"{kind}={count}" for kind, count in self.counts.items()]
        parts.append(f"slow-per-step={self.slow_per_step}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> FaultPlan:
        """Parse a spec like ``"seed=7,lanczos=0.01,ckpt=kill@3"``.

        Keys: ``seed`` (int); the in-process ``lanczos`` /
        ``nan-force`` / ``nan-operator`` / ``nan-brownian`` (per-call
        rates) and ``ckpt=EVENT@INDEX`` (repeatable); the process
        counts ``kill`` / ``hang`` / ``slow`` / ``corrupt`` and
        ``slow-per-step`` (float seconds).
        """
        kwargs: dict = {"checkpoint_events": {}, "counts": {}}
        for item in filter(None, (s.strip() for s in spec.split(","))):
            try:
                key, value = item.split("=", 1)
            except ValueError:
                raise ConfigurationError(
                    f"malformed --inject-faults item {item!r}; "
                    "expected key=value") from None
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key in _RATE_KEYS:
                kwargs[_RATE_KEYS[key]] = float(value)
            elif key == "ckpt":
                try:
                    event, index = value.split("@")
                    kwargs["checkpoint_events"][int(index)] = event
                except ValueError:
                    raise ConfigurationError(
                        f"malformed ckpt spec {value!r}; expected "
                        "EVENT@INDEX, e.g. kill@3") from None
            elif key in PROCESS_KINDS:
                kwargs["counts"][key] = int(value)
            elif key == "slow-per-step":
                kwargs["slow_per_step"] = float(value)
            else:
                raise ConfigurationError(
                    f"unknown --inject-faults key {key!r}; use seed, "
                    f"{', '.join(_RATE_KEYS)}, ckpt, "
                    f"{', '.join(PROCESS_KINDS)} or slow-per-step")
        return cls(**kwargs)


def _poison(array: np.ndarray) -> np.ndarray:
    """Copy of ``array`` with its first entry replaced by NaN."""
    out = np.array(array, dtype=np.float64, copy=True)
    out.reshape(-1)[0] = np.nan
    return out


class FaultyForceField(ForceField):
    """Wraps a force field, injecting NaN forces on schedule."""

    def __init__(self, inner: ForceField, schedule: FaultPlan):
        self.inner = inner
        self.schedule = schedule

    def forces(self, positions: np.ndarray) -> np.ndarray:  # noqa: RPR001 — pass-through; the wrapped field validates
        f = self.inner.forces(positions)
        if self.schedule.fire("force", "nan"):
            f = _poison(f)
        return f

    def energy(self, positions: np.ndarray) -> float:  # noqa: RPR001 — pass-through; the wrapped field validates
        return self.inner.energy(positions)


class FaultyOperator:
    """Wraps a :class:`~repro.pme.operator.PMEOperator`, poisoning
    ``apply`` outputs on schedule.  All other attributes delegate."""

    def __init__(self, inner, schedule: FaultPlan):
        self._inner = inner
        self._schedule = schedule

    def apply(self, forces, noise=None) -> np.ndarray:
        out = self._inner.apply(forces, noise=noise)
        if self._schedule.fire("operator", "nan"):
            out = _poison(out)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FaultyKrylovGenerator(KrylovBrownianGenerator):
    """Krylov generator injecting forced non-convergence / NaN output.

    A real :class:`KrylovBrownianGenerator` subclass, so the recovery
    ladder's ``copy.copy`` retry mechanics (adjusting ``tol`` and
    ``max_iter``) work unchanged; the copies share the schedule, and
    the retry — being the next call at the ``brownian`` site — sees a
    clean draw unless the schedule fires again.
    """

    def __init__(self, inner: KrylovBrownianGenerator,
                 schedule: FaultPlan):
        self.scale = inner.scale
        self.tol = inner.tol
        self.max_iter = inner.max_iter
        self.last_info = inner.last_info
        self.schedule = schedule

    def generate(self, mobility, z):
        if self.schedule.fire("brownian", "nonconvergence"):
            raise ConvergenceError(
                "injected Lanczos non-convergence", iterations=0,
                residual=float("inf"), n_matvecs=0)
        d = super().generate(mobility, z)
        if self.schedule.fire("brownian-nan", "nan"):
            d = _poison(d)
        return d


def faulty_checkpoint_save(schedule: FaultPlan,
                           log: RecoveryLog | None = None):
    """The fault drill's checkpoint writer: :func:`save_checkpoint` with
    the plan's scheduled write faults, for the ``save`` hook of
    :func:`~repro.core.checkpoint.run_checkpointed` (and
    ``Simulation.run``).  Write indices count every write through the
    returned function, from the start of the process.

    * ``kill`` — the process "dies" between writing the temp file and
      the atomic rename: nothing reaches ``path`` (the previous
      checkpoint stays valid — exactly what the atomic
      :func:`~repro.core.checkpoint.save_checkpoint` guarantees).
    * ``truncate`` — the finished file is cut to 60 % of its length.
    * ``bitflip`` — one byte in the middle of the file is flipped.

    Each fired event is recorded in ``log`` as
    ``inject-checkpoint-<event>``.
    """
    writes = itertools.count()

    def save(path, wrapped, unwrapped, step, rng):
        index = next(writes)
        event = schedule.checkpoint_event(index)
        if event is not None and log is not None:
            log.record(step, FailureKind.CHECKPOINT_CORRUPTION,
                       f"inject-checkpoint-{event}", write_index=index)
        if event == "kill":
            return  # simulated mid-write death: path is never replaced
        save_checkpoint(path, wrapped, unwrapped, step, rng)
        if event is not None:
            _corrupt_file(path, event)

    return save


def _corrupt_file(path: str | os.PathLike, event: str) -> None:
    size = os.path.getsize(path)
    if event == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(max(1, int(size * 0.6)))
    else:  # bitflip
        with open(path, "r+b") as fh:
            fh.seek(size // 2)
            byte = fh.read(1)
            fh.seek(size // 2)
            fh.write(bytes([byte[0] ^ 0xFF]))


def install_faults(integrator, schedule: FaultPlan) -> None:
    """Thread a plan's in-process faults through an integrator, in place.

    Wraps the force field and — for the matrix-free algorithm — the
    Brownian generator; the PME operator is wrapped on every rebuild
    via ``_prepare``.  Checkpoint faults are separate
    (:func:`faulty_checkpoint_save`): they belong to the writer of
    :func:`~repro.core.checkpoint.run_checkpointed`.  A plan with
    process counts is rejected: only the ensemble
    :class:`~repro.runtime.supervisor.Supervisor` can kill, hang, slow
    or corrupt a task.
    """
    if schedule.counts:
        key = next(iter(schedule.counts))
        raise ConfigurationError(
            f"fault key {key!r} is a process fault: a single run injects "
            f"only {', '.join(_RATE_KEYS)} and ckpt (process faults need "
            "repro ensemble)")
    if integrator.force_field is not None:
        integrator.force_field = FaultyForceField(integrator.force_field,
                                                  schedule)
    generator = getattr(integrator, "_generator", None)
    if isinstance(generator, KrylovBrownianGenerator):
        integrator._generator = FaultyKrylovGenerator(generator, schedule)
        inner_prepare = integrator._prepare

        def prepare(positions):  # noqa: RPR001 — pass-through; _prepare validates
            inner_prepare(positions)
            integrator._operator = FaultyOperator(integrator._operator,
                                                  schedule)

        integrator._prepare = prepare
