"""The unified mobility-operator API (batched multi-RHS pipeline).

Every representation of the periodic RPY mobility matrix — the
matrix-free :class:`~repro.pme.operator.PMEOperator`, the dense Ewald
matrix, an ad-hoc callable in a test — is consumed by the Krylov
solvers and the BD integrators through one small protocol:

* ``shape``                 — ``(3n, 3n)``;
* ``apply(f)``              — ``u = M f`` for a single vector (or a
  column block, column by column);
* ``apply_block(F)``        — ``U = M F`` for an ``(3n, s)`` block,
  amortizing spread/FFT/influence machinery across all ``s``
  right-hand sides (paper Sections III.B and IV.C);
* ``as_linear_operator()``  — a SciPy ``LinearOperator`` view.

The protocol is :func:`~typing.runtime_checkable`, so conformance is a
plain ``isinstance`` check.  :func:`as_mobility` normalizes anything a
solver may receive — a conforming operator, a dense matrix, or a bare
``matvec`` callable — into a :class:`MobilityOperator`, which lets the
block solvers issue *one* batched apply per iteration regardless of
what the caller handed them.

Operators are not callable: use ``op.apply(f)`` (see ``docs/api.md``
for the migration guide).
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np
from scipy.sparse.linalg import LinearOperator

__all__ = [
    "MobilityOperator",
    "DenseMobilityMatrix",
    "CallableMobility",
    "as_mobility",
]


@runtime_checkable
class MobilityOperator(Protocol):
    """Structural interface of every mobility representation."""

    @property
    def shape(self) -> tuple[int, int]:
        """Operator dimensions ``(3n, 3n)``."""
        ...

    def apply(self, forces: Any) -> np.ndarray:
        """``u = M f`` for one force vector (columns looped if 2-D)."""
        ...

    def apply_block(self, forces: Any) -> np.ndarray:
        """``U = M F`` for an ``(3n, s)`` block in one batched pass."""
        ...

    def as_linear_operator(self) -> LinearOperator:
        """SciPy ``LinearOperator`` view of the operator."""
        ...


class DenseMobilityMatrix:
    """A dense ``3n x 3n`` mobility matrix behind the operator API.

    Wraps the output of :meth:`~repro.rpy.ewald.EwaldSummation.matrix`
    (or any explicitly assembled SPD mobility) so that Algorithm 1
    machinery and the dense fallbacks of the recovery ladder speak the
    same :class:`MobilityOperator` protocol as the matrix-free path.
    BLAS GEMM already batches over columns, so ``apply_block`` is a
    single matrix product.
    """

    def __init__(self, matrix: Any):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(
                f"mobility matrix must be square 2-D, got shape {m.shape}")
        self.matrix = m

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def apply(self, forces: Any) -> np.ndarray:
        return self.matrix @ np.asarray(forces, dtype=np.float64)

    def apply_block(self, forces: Any) -> np.ndarray:
        f = np.asarray(forces, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError(
                f"apply_block expects a 2-D (3n, s) block, got {f.shape}")
        return self.matrix @ f

    def as_linear_operator(self) -> LinearOperator:
        return LinearOperator(self.shape, matvec=self.apply,
                              matmat=self.apply_block, rmatvec=self.apply,
                              dtype=np.float64)


class CallableMobility:
    """Adapter presenting a bare ``matvec`` callable as an operator.

    The legacy solver entry points took ``matvec: f -> M f``; wrapping
    keeps every such call site working while the solvers themselves
    consume only the protocol.  ``apply_block`` first offers the whole
    block to the callable (the package's operators accept column
    blocks) and falls back to a column loop if the callable rejects it
    or returns the wrong shape.
    """

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray],
                 dim: int | None = None):
        if not callable(matvec):
            raise TypeError(f"matvec must be callable, got {type(matvec)!r}")
        self.matvec = matvec
        self._dim = None if dim is None else int(dim)

    @property
    def shape(self) -> tuple[int, int]:
        if self._dim is None:
            raise ValueError(
                "CallableMobility has no dimension; pass dim= when the "
                "shape is needed (as_linear_operator)")
        return (self._dim, self._dim)

    def apply(self, forces: Any) -> np.ndarray:
        return np.asarray(self.matvec(forces), dtype=np.float64)

    def apply_block(self, forces: Any) -> np.ndarray:
        f = np.asarray(forces, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError(
                f"apply_block expects a 2-D (3n, s) block, got {f.shape}")
        try:
            candidate = np.asarray(self.matvec(f), dtype=np.float64)
        except (TypeError, ValueError):
            candidate = None  # vector-only callable: rejects a block
        if candidate is not None and candidate.shape == f.shape:
            return candidate
        out = np.empty_like(f)
        for col in range(f.shape[1]):
            out[:, col] = np.asarray(self.matvec(f[:, col]),
                                     dtype=np.float64).reshape(-1)
        return out

    def as_linear_operator(self) -> LinearOperator:
        return LinearOperator(self.shape, matvec=self.apply,
                              matmat=self.apply_block, rmatvec=self.apply,
                              dtype=np.float64)

    def __call__(self, forces: Any) -> np.ndarray:
        # the adapter exists *for* callable call sites: no deprecation
        return self.apply(forces)


def as_mobility(operator: Any, dim: int | None = None) -> MobilityOperator:
    """Normalize ``operator`` into a :class:`MobilityOperator`.

    Accepts (in precedence order) a conforming operator, a dense 2-D
    matrix, or a bare ``matvec`` callable.  Solvers call this once at
    entry so their iteration loops can rely on ``apply_block``.
    """
    if isinstance(operator, MobilityOperator):
        return operator
    if isinstance(operator, np.ndarray) and operator.ndim == 2:
        return DenseMobilityMatrix(operator)
    if callable(operator):
        return CallableMobility(operator, dim=dim)
    raise TypeError(
        f"cannot interpret {type(operator).__name__} as a mobility "
        f"operator: expected a MobilityOperator, a dense matrix, or a "
        f"matvec callable")
