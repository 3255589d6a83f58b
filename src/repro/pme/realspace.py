"""The short-range (real-space) Ewald operator as a block-sparse matrix.

With the Ewald parameter chosen so the real-space series is negligible
beyond a cutoff ``r_max``, the operator ``M_real`` becomes a sparse
matrix with a 3x3 RPY tensor block per interacting pair (paper
Section IV.C) and stored in BCSR.  The build is compiled from the
candidate list to the stored blocks: a pair search
(:func:`~repro.neighbor.pairs.find_pairs`: the paper's Verlet cell list,
one C sweep in O(n + pairs) whose strict minimum-image test decides),
the separations of the pairs in a second one
(:meth:`~repro.geometry.box.Box.distances`), the scalar coefficients
``f, g`` of every pair in NumPy/SciPy
(:func:`~repro.rpy.pse.real_space_coefficients`, the positively split
Ewald real-space half, cache-sized chunks: ``erfc`` and ``exp`` decide
the bytes, and this is the largest step of the build), and one linear
symmetric assembly that computes each ``f I + g rhat rhat^T`` in the
slot it is stored in (:func:`~repro.sparse.kernels.bcsr_assemble_dyads`) — no
per-pair tensor array exists.  Without a C compiler the same matrix,
byte for byte, comes from :func:`~repro.rpy.tensor.pair_dyads` through
:meth:`~repro.sparse.bcsr.BlockCSR.from_pairs`.  Because Algorithm 2
applies the operator to blocks of vectors, every product — one column
or many — is the multi-RHS SpMM of
:meth:`~repro.sparse.bcsr.BlockCSR.matmat`.

All values are in units of ``mu0 = 1/(6 pi eta a)``; the composed
:class:`~repro.pme.operator.PMEOperator` applies the physical prefactor.
The diagonal blocks carry the self term of the split.  The matrix is the
positive-definite half of the split (its transform is ``6 pi a
sinc^2(ka) (1 - H(k)) / k^2 >= 0``), so Algorithm 2 samples it by block
Lanczos on its own; overlapping pairs need no correction, the overlap
form of the RPY tensor is part of it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .. import obs
from ..errors import ConfigurationError
from ..geometry.box import Box
from ..lint.contracts import force_block_arg, positions_arg
from ..neighbor.pairs import find_pairs
from ..rpy import pse
from ..rpy.tensor import pair_dyads
from ..sparse.bcsr import BlockCSR
from ..sparse.kernels import bcsr_assemble_dyads, kernel_available
from ..units import FluidParams, REDUCED
from ..utils.validation import as_force_block, as_positions

__all__ = ["RealSpaceOperator"]


class RealSpaceOperator:
    """Sparse real-space Ewald mobility ``M_real + M_self`` (in ``mu0`` units).

    A :class:`~repro.core.mobility.MobilityOperator`: block Lanczos
    samples it directly (:class:`~repro.core.integrators.MatrixFreeBD`).

    Parameters
    ----------
    positions:
        Particle positions, shape ``(n, 3)``.
    box:
        Periodic box; ``r_max`` must not exceed ``L/2`` (minimum image).
    xi:
        Ewald splitting parameter.
    r_max:
        Real-space cutoff distance.
    fluid:
        Fluid parameters (radius enters the tensors).
    context:
        The :class:`~repro.exec.ExecutionContext` a product runs on when
        :meth:`apply_block` is given none (``None``: serial).
    """

    @positions_arg()
    def __init__(self, positions, box: Box, xi: float, r_max: float,
                 fluid: FluidParams = REDUCED, context=None):
        r = as_positions(positions)
        n = r.shape[0]
        if r_max <= 0:
            raise ConfigurationError(f"r_max must be positive, got {r_max}")
        if r_max > box.length / 2 + 1e-12:
            raise ConfigurationError(
                f"r_max={r_max} exceeds half the box length {box.length / 2}; "
                "the real-space sum would need explicit image shells")

        self.box = box
        self.fluid = fluid
        self.xi = float(xi)
        self.r_max = float(r_max)
        self.n = n
        self.context = context

        with obs.span("pme.find_pairs", n=n):
            i, j = find_pairs(r, box, r_max)
        radius = fluid.radius
        diag_scalar = pse.self_mobility_scalar(xi, radius)
        # without a compiler: NumPy tensors through from_pairs, the byte
        # reference of the fused fill
        fused = kernel_available()
        with obs.span("pme.real_tensors", pairs=int(i.size)):
            rij, dist = box.distances(r, i, j)
            f, g = pse.real_space_coefficients(dist, xi, radius)
            if not fused:
                blocks = pair_dyads(rij, f, g)

        with obs.span("pme.real_assemble", pairs=int(i.size)):
            #: The block-sparse operator (always available for introspection).
            if fused:
                self.bcsr = BlockCSR(n, *bcsr_assemble_dyads(
                    n, i, j, f, g, rij, dist, diag_scalar))
            else:
                diag = np.broadcast_to(diag_scalar * np.eye(3), (n, 3, 3))
                self.bcsr = BlockCSR.from_pairs(n, i, j, blocks,
                                                diag_blocks=diag)
        #: Number of interacting pairs within ``r_max``.
        self.n_pairs = int(i.size)

    @force_block_arg()
    def apply_block(self, forces, context=None) -> np.ndarray:
        """``u_real = (M_real + M_self) f`` in ``mu0`` units.

        Accepts flat ``(3n,)`` vectors or ``(3n, s)`` blocks of vectors
        (the block path is the one Algorithm 2 exercises): one
        :meth:`~repro.sparse.bcsr.BlockCSR.matmat`, the paper's Section
        IV.C block-of-vectors SpMV, at any width and with the same bytes
        per column.  A parallel :class:`~repro.exec.ExecutionContext`
        chunks the product into block-row ranges across its workers
        (bit-identical: row results are independent); without one the
        operator's own ``context`` is used.
        """
        f, flat = as_force_block(forces, self.n)
        if context is None:
            context = self.context
        span_args = {} if context is None else context.span_args()
        with obs.span("pme.real_spmm", s=int(f.shape[1]), **span_args):
            out = self.bcsr.matmat(f, context=context)
        return out[:, 0] if flat else out

    #: The same product; a flat vector is a one-column block.
    apply = apply_block

    @property
    def shape(self) -> tuple[int, int]:
        """Operator shape ``(3n, 3n)``."""
        return (3 * self.n, 3 * self.n)

    def as_linear_operator(self) -> LinearOperator:
        """A :class:`scipy.sparse.linalg.LinearOperator` view (``mu0``
        units)."""
        return LinearOperator(shape=self.shape, matvec=self.apply,
                              matmat=self.apply_block, rmatvec=self.apply,
                              dtype=np.float64)

    @property
    def memory_bytes(self) -> int:
        """Bytes of the stored sparse operator."""
        return self.bcsr.memory_bytes

    @property
    def nnz_blocks(self) -> int:
        """Number of stored 3x3 blocks (pairs both ways + diagonal)."""
        return self.bcsr.nnz_blocks
