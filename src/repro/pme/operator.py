"""The composed matrix-free PME mobility operator (paper Algorithm 2, line 4).

``PMEOperator`` is the software object the paper calls "the PME
operator": built once per mobility update from a particle
configuration, then applied to many force vectors::

    u = PME(f) = mu0 * ( M_real f  +  M_recip f  +  M_self f )

* the real-space term is a BCSR SpMV (:mod:`repro.pme.realspace`),
* the reciprocal-space term is the six-step mesh pipeline of
  Section IV.A: spread (``P^T f``), forward r2c FFT, influence
  function, inverse FFT, interpolate (``P U``),
* the self term is carried on the diagonal blocks of the real-space
  matrix.

Each phase is timed into :class:`~repro.utils.timing.PhaseTimer` under
the names used by Fig. 5 (``spread``, ``fft``, ``influence``, ``ifft``,
``interpolate``, ``real``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator

from .. import obs
from ..errors import ConfigurationError
from ..geometry.box import Box
from ..lint.contracts import force_block_arg, positions_arg
from ..units import FluidParams, REDUCED
from ..utils.params import keyword_only
from ..utils.timing import PhaseTimer
from ..utils.validation import as_force_block, as_positions
from .cache import MobilityCache
from .realspace import RealSpaceOperator
from .spread import InterpolationMatrix, interpolate_on_the_fly, spread_on_the_fly

__all__ = ["PMEParams", "PMEOperator"]


#: Widest column block one pass of the pipeline handles; wider blocks
#: are chunked so the ``(3 s, K^3)`` workspaces stay bounded (``to_dense``
#: applies the operator to a ``3n``-column identity).
MAX_BLOCK_COLUMNS = 32


#: ``np.fft`` transforms write into ``out=`` from NumPy 2.0 on; below
#: it (declared floor: 1.24) a lane is transformed and then copied.
#: Decided here, once, for both directions.
_FFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def _rfftn_lanes(src: np.ndarray, dst: np.ndarray, context) -> None:
    """Forward r2c FFT of every lane ``src[b]`` straight into ``dst[b]``.

    The one forward-transform path of the pipeline: lanes are split in
    contiguous ranges over ``context.run_ranges`` (pocketfft releases
    the GIL), and each lane is transformed by the same NumPy call
    whatever the worker count, so the spectrum is bitwise independent
    of the context.  One worker is the plain loop.
    """
    def transform(lo: int, hi: int) -> None:
        for b in range(lo, hi):
            if _FFT_OUT:
                np.fft.rfftn(src[b], out=dst[b])
            else:
                dst[b] = np.fft.rfftn(src[b])

    context.run_ranges(transform, src.shape[0], "fft")


def _irfftn_lanes(spec: np.ndarray, mesh: np.ndarray, context) -> None:
    """Inverse c2r FFT of every lane ``spec[b]`` straight into
    ``mesh[b]``; the mirror of :func:`_rfftn_lanes`, on the same pool.
    ``spec`` is consumed (its lanes are transformed in place).

    Per lane: SciPy's c2c over the two full axes, then the c2r over the
    half axis — NumPy's where it takes ``out=`` (nothing is allocated
    and nothing copied), SciPy's plus a lane copy below NumPy 2.  These
    are the 1-D pocketfft transforms of the stacked
    ``scipy.fft.ifftn(axes=(1, 2))`` / ``irfft(axis=3)`` pair, and give
    its bytes; an all-NumPy ``irfftn`` does not, and is slower.  No
    ``workers=``: lanes are the parallelism, and pocketfft's own thread
    pool is never started.
    """
    K = mesh.shape[-1]

    def transform(lo: int, hi: int) -> None:
        for b in range(lo, hi):
            tmp = sfft.ifftn(spec[b], axes=(0, 1), overwrite_x=True)
            if _FFT_OUT:
                np.fft.irfft(tmp, n=K, axis=2, out=mesh[b])
            else:
                mesh[b] = sfft.irfft(tmp, n=K, axis=2, overwrite_x=True)

    context.run_ranges(transform, spec.shape[0], "ifft")


@keyword_only
@dataclass(frozen=True)
class PMEParams:
    """The PME parameter set of the paper's Table III.

    Parameters
    ----------
    xi:
        Ewald splitting parameter (the paper's ``alpha``).
    r_max:
        Real-space cutoff distance.
    K:
        FFT mesh dimension (mesh is ``K^3``).
    p:
        Cardinal B-spline order (paper uses 4 or 6).
    """

    xi: float
    r_max: float
    K: int
    p: int = 6
    #: Interpolation scheme: ``"bspline"`` (smooth PME, default) or
    #: ``"lagrange"`` (the original PME of paper reference [6]).
    interpolation: str = "bspline"
    #: Hydrodynamic kernel: ``"rpy"`` (the paper) or ``"oseen"`` (the
    #: Stokeslet kernel of the related-work Stokesian PME codes).
    kernel: str = "rpy"

    def __post_init__(self) -> None:
        if self.xi <= 0:
            raise ConfigurationError(f"xi must be positive, got {self.xi}")
        if self.r_max <= 0:
            raise ConfigurationError(f"r_max must be positive, got {self.r_max}")
        if self.K < 2:
            raise ConfigurationError(f"K must be >= 2, got {self.K}")
        if self.p < 2:
            raise ConfigurationError(f"p must be >= 2, got {self.p}")
        if self.K < self.p:
            raise ConfigurationError(
                f"K={self.K} must be at least the spline order p={self.p}")
        if self.interpolation not in ("bspline", "lagrange"):
            raise ConfigurationError(
                f"unknown interpolation {self.interpolation!r}")
        if self.kernel not in ("rpy", "oseen"):
            raise ConfigurationError(f"unknown kernel {self.kernel!r}")


class PMEOperator:
    """Matrix-free periodic RPY mobility operator for one configuration.

    Parameters
    ----------
    positions:
        Particle positions, shape ``(n, 3)``.
    box:
        Periodic simulation box.
    params:
        PME parameters ``(xi, r_max, K, p)``.
    fluid:
        Fluid parameters; the returned velocities include the physical
        ``mu0`` prefactor.
    store_p:
        Precompute and reuse the interpolation matrix ``P`` (paper
        Section IV.A; the Fig. 4 optimization).  When false, spreading
        and interpolation recompute spline weights on the fly.
    cache:
        :class:`~repro.pme.cache.MobilityCache` holding the
        position-independent state (mesh, influence function, batched
        workspaces).  Pass the integrator's cache to reuse that state
        across operator rebuilds — the mobility-reuse optimization of
        Algorithm 2, where a fresh operator is built every
        ``lambda_RPY`` steps; an operator built without one owns a
        private cache.
    context:
        The :class:`~repro.exec.ExecutionContext` supplying the
        workers; ``None`` (default) takes the process default from
        :func:`repro.exec.default_context` — a one-worker ``serial``
        context unless the runtime config selects ``threads``.  Mesh
        rows of the spreading gather, particle rows of the
        interpolation, FFT lanes and block rows of the real-space SpMM
        are split across them; every split writes disjoint outputs in
        a fixed summation order, so the result is the same bytes on
        ``serial`` and ``threads`` at any worker count, for a fixed
        kernel configuration.

    Notes
    -----
    The operator is *frozen* to the positions it was built with —
    exactly like line 4 of Algorithm 2, which constructs the PME
    operator once per ``lambda_RPY`` steps.
    """

    @positions_arg()
    def __init__(self, positions, box: Box, params: PMEParams,
                 fluid: FluidParams = REDUCED, store_p: bool = True,
                 cache: MobilityCache | None = None, context=None):
        from ..exec import default_context  # deferred: import cycle
        self.positions = as_positions(positions).copy()
        self.n = self.positions.shape[0]
        self.box = box
        self.params = params
        self.fluid = fluid
        self.cache = cache if cache is not None else MobilityCache()
        self.context = context if context is not None else default_context()
        self._exec_args = self.context.span_args()
        self.mesh = self.cache.mesh(box, params.K)
        self.store_p = bool(store_p)
        self.timers = PhaseTimer(prefix="pme")
        #: Total number of operator applications (column counts included).
        self.n_applications = 0

        with self.timers.phase("construct_p", **self._exec_args):
            self.interp = (InterpolationMatrix(self.positions, box,
                                               params.K, params.p,
                                               kind=params.interpolation)
                           if store_p else None)
        self.influence = self.cache.influence(
            self.mesh, params.xi, params.p, fluid.radius,
            interpolation=params.interpolation, kernel=params.kernel)
        with self.timers.phase("construct_real"):
            self.real = RealSpaceOperator(
                self.positions, box, params.xi, params.r_max, fluid=fluid,
                kernel=params.kernel)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Operator shape ``(3n, 3n)``."""
        return (3 * self.n, 3 * self.n)

    @force_block_arg()
    def apply_block(self, forces) -> np.ndarray:
        """``U = M F`` for ``F`` of shape ``(3n,)`` or ``(3n, s)``.

        The one mobility-apply pipeline (:meth:`apply` is this method):
        the reciprocal half (:meth:`apply_reciprocal`) plus the real
        half (:meth:`apply_real`), times the physical prefactor
        ``mu0``.  A flat vector is a one-column block and comes back
        flat.  The whole reciprocal pipeline is amortized across the
        block (paper Sections IV.A-IV.C):

        * one spreading gather over ``P^T`` for all ``3s`` mesh lanes,
        * ``3s`` contiguous forward r2c FFTs into one stacked
          half-spectrum, and ``3s`` inverse transforms (c2c over the
          two full axes + c2r over the half axis) back into the mesh
          workspace the forces were spread on,
        * the influence function applied slab-fused over all vectors
          (``khat``/scalar grids read once per slab, not once per
          vector),
        * one BCSR SpMM for the real-space term (a row's 3x3 blocks
          against all ``s`` lanes while the row is in L1).

        No stage's arithmetic depends on ``s``: column ``j`` is, bytewise,
        the result for column ``j`` alone.  Workspaces are leading lanes
        of the ``MobilityCache`` arena, so repeated applications allocate
        nothing; blocks wider than ``MAX_BLOCK_COLUMNS`` run as passes.
        """
        f, flat = as_force_block(forces, self.n)
        s = f.shape[1]
        out = self.apply_reciprocal(f)
        out += self.apply_real(f)
        out *= self.fluid.mobility0
        self.n_applications += s
        obs.inc("pme_applications_total", s)
        return out[:, 0] if flat else out

    #: ``u = M f`` — the batched pipeline with one column.
    apply = apply_block

    def apply_real(self, forces) -> np.ndarray:
        """Real-space + self contribution in ``mu0`` units (the real
        half of :meth:`apply_block`)."""
        f, flat = as_force_block(forces, self.n)
        with self.timers.phase("real", vectors=f.shape[1],
                               **self._exec_args):
            out = self.real.apply_block(f, context=self.context)
        return out[:, 0] if flat else out

    def apply_reciprocal(self, forces) -> np.ndarray:
        """Reciprocal-space contribution in ``mu0`` units (the
        reciprocal half of :meth:`apply_block`).

        The six-step mesh pipeline of Section IV.A over all ``3s``
        lanes of the block at once, ``MAX_BLOCK_COLUMNS`` columns per
        pass.
        """
        f, flat = as_force_block(forces, self.n)
        n, K = self.n, self.params.K
        ctx, xargs = self.context, self._exec_args
        interp = self.interp        # None: the Fig. 4 on-the-fly reference
        out = np.empty((3 * n, f.shape[1]))
        for lo in range(0, f.shape[1], MAX_BLOCK_COLUMNS):
            fc = f[:, lo:lo + MAX_BLOCK_COLUMNS]
            s = fc.shape[1]
            lanes = 3 * s                   # lane b = component*s + vector
            ws = self.cache.workspace(K, lanes, n)
            g, spec = ws["mesh"], ws["spec"]
            g4 = g.reshape(lanes, K, K, K)

            fm = fc.reshape(n, lanes)
            with self.timers.phase("spread", vectors=s, **xargs):
                if interp is not None:
                    interp.spread_batch(fm, out=g, context=ctx)
                else:
                    gm = spread_on_the_fly(self.positions, self.box, K,
                                           self.params.p, fm,
                                           kind=self.params.interpolation)
                    for a in range(0, K ** 3, 16384):
                        g[:, a:a + 16384] = gm[a:a + 16384].T

            with self.timers.phase("fft", vectors=s, **xargs):
                _rfftn_lanes(g4, spec, ctx)

            with self.timers.phase("influence", vectors=s, **xargs):
                self.influence.apply_batch(
                    spec.reshape((3, s) + self.mesh.rshape))

            with self.timers.phase("ifft", vectors=s, **xargs):
                # the forward FFT consumed the spread forces: the mesh
                # workspace now takes the velocities
                _irfftn_lanes(spec, g4, ctx)

            with self.timers.phase("interpolate", vectors=s, **xargs):
                oc = out.reshape(n, 3, -1)[:, :, lo:lo + s]
                if interp is not None:
                    um = interp.interpolate_batch(g, out=ws["particle"],
                                                  context=ctx)
                    oc[...] = um.reshape(3, s, n).transpose(2, 0, 1)
                else:
                    um = interpolate_on_the_fly(self.positions, self.box, K,
                                                self.params.p, g.T,
                                                kind=self.params.interpolation)
                    oc[...] = um.reshape(n, 3, s)
        return out[:, 0] if flat else out

    # ------------------------------------------------------------------
    # adapters and accounting
    # ------------------------------------------------------------------

    def as_linear_operator(self) -> LinearOperator:
        """A :class:`scipy.sparse.linalg.LinearOperator` view of ``M``.

        Multi-vector products go through the batched
        :meth:`apply_block` fast path.
        """
        return LinearOperator(
            shape=self.shape, matvec=self.apply, matmat=self.apply_block,
            rmatvec=self.apply, dtype=np.float64)

    def to_dense(self) -> np.ndarray:
        """Densify by applying to the identity (tests / small n only)."""
        return self.apply(np.eye(3 * self.n))

    def memory_report(self) -> dict[str, int]:
        """Bytes held by each persistent component (Fig. 7a accounting)."""
        report = {
            "real_space_matrix": self.real.memory_bytes,
            "influence_function": self.influence.memory_bytes,
            "interpolation_matrix": (self.interp.memory_bytes
                                     if self.interp is not None else 0),
            # two K^3 x 3 float mesh arrays (forces and velocities)
            "mesh_arrays": 2 * 3 * 8 * self.params.K ** 3,
        }
        report["total"] = sum(report.values())
        return report

    def phase_breakdown(self) -> dict[str, float]:
        """Accumulated seconds per pipeline phase (Fig. 5 data)."""
        return self.timers.breakdown()
