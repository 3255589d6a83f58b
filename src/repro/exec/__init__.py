"""repro.exec — execution contexts and worker-resource ownership.

The package's answer to "who runs the parallel parts": an
:class:`ExecutionContext` selects a backend (``serial`` | ``threads``),
owns the thread pool, and is threaded through the PME hot path so
spreading, interpolation, both FFT directions and the real-space SpMM
actually execute on multiple cores (paper Sections
IV.B.2, IV.C, IV.E).  See :mod:`repro.exec.context` for the backend
semantics and the bit-identity invariant.
"""

from .context import (
    INLINE,
    ExecutionContext,
    default_context,
    reset_default_context,
    row_blocks,
)

__all__ = ["ExecutionContext", "INLINE", "default_context",
           "reset_default_context", "row_blocks"]
