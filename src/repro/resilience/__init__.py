"""Fault-tolerant simulation runtime.

Production-length BD runs (the paper's Fig. 3 / Fig. 8 experiments)
must survive the failures that show up only after hours: a Lanczos
solve that stops converging as particles crowd, a NaN force from a
pathological overlap, a checkpoint half-written when the node dies.
This subpackage provides

* :mod:`~repro.resilience.failures` — the failure taxonomy
  (:class:`FailureKind`, :class:`StepFailure`),
* :mod:`~repro.resilience.backoff` — shared retry backoff with
  deterministic jitter, the dt-scale decay chokepoint and the
  :class:`CircuitBreaker` used by the ensemble supervisor,
* :mod:`~repro.resilience.policy` — :class:`RecoveryPolicy` knobs and
  the :class:`RecoveryLog` returned in run statistics,
* :mod:`~repro.resilience.recovery` — the retry → Chebyshev → dense
  reference degradation ladder,
* :mod:`~repro.resilience.faults` — the deterministic fault-injection
  engine (:class:`FaultPlan`) behind the tests and the
  ``--inject-faults`` option of ``repro simulate`` and ``repro
  ensemble``.

``faults`` is imported lazily (it wraps concrete :mod:`repro.core`
classes, which themselves use this package's policy types).
"""

from .backoff import BackoffPolicy, CircuitBreaker, next_dt_scale
from .failures import FailureKind, StepFailure, classify_exception
from .policy import RecoveryEvent, RecoveryLog, RecoveryPolicy
from .recovery import (
    cholesky_displacements_resilient,
    krylov_displacements_resilient,
    materialize_operator,
)

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "next_dt_scale",
    "FailureKind",
    "StepFailure",
    "classify_exception",
    "RecoveryPolicy",
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
    "faulty_checkpoint_callback",
    "install_faults",
]

_FAULT_NAMES = {"FaultPlan", "Fault", "FaultyForceField",
                "FaultyOperator", "FaultyKrylovGenerator",
                "faulty_checkpoint_callback", "install_faults"}


def __getattr__(name):
    if name in _FAULT_NAMES:
        from . import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
