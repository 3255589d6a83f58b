"""The short-range (real-space) Ewald operator as a block-sparse matrix.

With the Ewald parameter chosen so the real-space series is negligible
beyond a cutoff ``r_max``, the operator ``M_real`` becomes a sparse
matrix with a 3x3 RPY tensor block per interacting pair (paper
Section IV.C) and stored in BCSR.  The build is two compiled steps: the
pairs with their separations, from the caller's
:class:`~repro.neighbor.verlet.VerletList` kept across rebuilds or from
a fresh cell-list search (:func:`~repro.neighbor.pairs.find_pairs`,
:meth:`~repro.geometry.box.Box.distances`) — the same arrays — and one
linear symmetric assembly (:func:`~repro.sparse.kernels.bcsr_assemble_dyads`)
that gathers each pair's ``f, g`` of the positively split Ewald
real-space half from the split's table
(:func:`~repro.rpy.pse.coefficient_table`, in the
:class:`~repro.pme.cache.MobilityCache`) and computes ``f I + g rhat
rhat^T`` in the slot it is stored in, packed to the 6 doubles of its
upper triangle.  Without a C compiler that call falls back inside itself
to NumPy, the same matrix byte for byte.  Because Algorithm 2 applies
the operator to blocks of vectors, every product — one column or many
— is the multi-RHS SpMM of
:meth:`~repro.sparse.bcsr.BlockCSR.matmat`, which streams the packed
blocks (56 bytes each with the column index, against 80 for a full
3x3 block) two rows at a time.

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

from .. import obs
from ..errors import ConfigurationError
from ..geometry.box import Box
from ..neighbor.pairs import find_pairs
from ..sparse.bcsr import BlockCSR
from ..sparse.kernels import bcsr_assemble_dyads
from ..units import FluidParams, REDUCED
from ..utils.validation import as_force_block, as_positions
from .cache import MobilityCache

__all__ = ["RealSpaceOperator"]


class RealSpaceOperator:
    """Sparse real-space Ewald mobility ``M_real + M_self`` (in ``mu0`` units).

    A mobility operator (``apply_block``): block Lanczos samples it
    directly (:class:`~repro.core.integrators.MatrixFreeBD`).

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
    cache:
        :class:`~repro.pme.cache.MobilityCache` of the coefficient table.
    pairs:
        A :class:`~repro.neighbor.verlet.VerletList` at ``r_max`` on
        ``box``, kept across rebuilds; ``None`` searches afresh.
    """

    def __init__(self, positions, box: Box, xi: float, r_max: float,
                 fluid: FluidParams = REDUCED, context=None,
                 cache: MobilityCache | None = None, pairs=None):
        r = as_positions(positions)
        n = r.shape[0]
        if r_max <= 0:
            raise ConfigurationError(f"r_max must be positive, got {r_max}")
        if r_max > box.length / 2 + 1e-12:
            raise ConfigurationError(
                f"r_max={r_max} exceeds half the box length {box.length / 2}; "
                "the real-space sum would need explicit image shells")
        if pairs is not None and (pairs.cutoff != r_max or pairs.box != box):
            raise ConfigurationError(f"pair list is not at r_max={r_max}")

        self.box = box
        self.fluid = fluid
        self.xi = float(xi)
        self.r_max = float(r_max)
        self.n = n
        self.context = context

        with obs.span("pme.find_pairs", n=n):
            if pairs is None:
                i, j = find_pairs(r, box, r_max)
                rij, dist = box.distances(r, i, j)
            else:
                i, j, rij, dist = pairs.separations(r)
        with obs.span("pme.real_table"):
            table = (cache or MobilityCache()).pse_table(xi, r_max,
                                                         fluid.radius)

        with obs.span("pme.real_assemble", pairs=int(i.size)):
            #: The block-sparse operator (always available for introspection).
            self.bcsr = BlockCSR(n, *bcsr_assemble_dyads(n, i, j, table, rij,
                                                         dist))
        #: Number of interacting pairs within ``r_max``.
        self.n_pairs = int(i.size)

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

    @property
    def memory_bytes(self) -> int:
        """Bytes of the stored sparse operator: ``48 nnzb + 8 nnzb + 8
        (n + 1)`` (packed blocks, column indices, row pointer)."""
        return self.bcsr.memory_bytes

    @property
    def nnz_blocks(self) -> int:
        """Number of stored 3x3 blocks (pairs both ways + diagonal)."""
        return self.bcsr.nnz_blocks
