"""Fault-tolerant simulation runtime.

Production-length BD runs (the paper's Fig. 3 / Fig. 8 experiments)
must survive the failures that show up only after hours: a Lanczos
solve that stops converging as particles crowd, a NaN force from a
pathological overlap, a checkpoint half-written when the node dies.
This subpackage provides

* :mod:`~repro.resilience.failures` — the failure taxonomy
  (:class:`FailureKind`, :class:`StepFailure`),
* :mod:`~repro.resilience.backoff` — the ensemble supervisor's retry
  delay (:func:`retry_delay`) with deterministic jitter,
* :mod:`~repro.resilience.policy` — the :class:`RecoveryLog` returned
  in run statistics,
* :mod:`~repro.resilience.recovery` — the recovery policy: the Lanczos
  retry → dense reference degradation ladder and the constants of the
  ladder, the dt backoff and the block rollback (recovery is always on
  and has no knobs),
* :mod:`~repro.resilience.faults` — the deterministic fault-injection
  engine (:class:`FaultPlan`) behind the tests and the
  ``--inject-faults`` option of ``repro simulate`` and ``repro
  ensemble``.

``faults`` is imported lazily (it wraps concrete :mod:`repro.core`
classes, which themselves use this package's recovery ladder).
"""

from .backoff import retry_delay
from .failures import FailureKind, StepFailure, classify_exception
from .policy import RecoveryEvent, RecoveryLog
from .recovery import (
    cholesky_displacements_resilient,
    krylov_displacements_resilient,
    materialize_operator,
    next_dt_scale,
)

__all__ = [
    "retry_delay",
    "next_dt_scale",
    "FailureKind",
    "StepFailure",
    "classify_exception",
    "RecoveryEvent",
    "RecoveryLog",
    "krylov_displacements_resilient",
    "cholesky_displacements_resilient",
    "materialize_operator",
    "FaultPlan",
    "Fault",
    "FaultyForceField",
    "FaultyOperator",
    "FaultyKrylovGenerator",
    "faulty_checkpoint_save",
    "install_faults",
]

_FAULT_NAMES = {"FaultPlan", "Fault", "FaultyForceField",
                "FaultyOperator", "FaultyKrylovGenerator",
                "faulty_checkpoint_save", "install_faults"}


def __getattr__(name):
    if name in _FAULT_NAMES:
        from . import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
