"""The composed matrix-free PME mobility operator (paper Algorithm 2, line 4).

``PMEOperator`` is the software object the paper calls "the PME
operator": built once per mobility update from a particle
configuration, then applied to many force vectors::

    u = PME(f) = mu0 * ( M_real f  +  M_recip f  +  M_self f )

* the real-space term is a BCSR SpMV (:mod:`repro.pme.realspace`),
* the reciprocal-space term is the six-step mesh pipeline of
  Section IV.A: spread (``P^T f``), forward r2c FFT, influence
  function, inverse FFT, interpolate (``P U``) — every stage split
  over the execution context's workers: the FFTs by ranges of mesh
  lanes (one call per pass over a range), the influence by ranges of
  half-spectrum modes (a compiled pass), the interpolation of a wide
  block by ranges of mesh points (a lane-interleaved copy of the mesh,
  into the spectrum workspace the inverse FFT has consumed) and then
  of a spatial particle order (every lane per visit of a row),
* the self term is carried on the diagonal blocks of the real-space
  matrix.

The Ewald split is the positively split one (:mod:`repro.rpy.pse`), so
the same pass also samples the reciprocal half exactly: the ``noise``
of :meth:`PMEOperator.apply_block` joins the influence stage and leaves
as ``P C^(1/2) W`` beside the drift.

Each phase is timed into :class:`~repro.obs.PhaseTimer` under
the names used by Fig. 5 (``spread``, ``fft``, ``influence``, ``ifft``,
``interpolate``, ``real``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .. import obs
from ..errors import ConfigurationError
from ..geometry.box import Box
from ..units import FluidParams, REDUCED
from ..utils.validation import as_force_block, as_positions
from .cache import MobilityCache
from .realspace import RealSpaceOperator
from .spread import InterpolationMatrix

__all__ = ["PMEParams", "PMEOperator"]


#: Widest column block one pass of the pipeline handles; wider blocks
#: are chunked so the ``(3 s, K^3)`` workspaces stay bounded (``to_dense``
#: applies the operator to a ``3n``-column identity).
MAX_BLOCK_COLUMNS = 32


#: ``np.fft`` transforms write into ``out=`` from NumPy 2.0 on; below
#: it (declared floor: 1.24) a lane range is transformed and then copied.
#: Decided here, once, for both directions.
_FFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def _rfftn_lanes(src: np.ndarray, dst: np.ndarray, context) -> None:
    """Forward r2c FFT of every lane ``src[b]`` straight into ``dst[b]``.

    The one forward-transform path of the pipeline: lanes are split in
    contiguous ranges over ``context.run_ranges`` (pocketfft releases
    the GIL), and a worker transforms its whole range with one call per
    pass — NumPy's r2c over the last axis into ``dst``, then SciPy's
    c2c over the two full axes in place, the second axis first.  These
    are the 1-D pocketfft transforms of a lane's ``np.fft.rfftn``, in
    its axis order, and give its bytes whatever the range, so the
    spectrum is bitwise independent of the context.  No ``workers=``:
    lanes are the parallelism, and pocketfft's own thread pool is never
    started.
    """
    def transform(lo: int, hi: int) -> None:
        lanes = dst[lo:hi]
        if _FFT_OUT:
            np.fft.rfft(src[lo:hi], axis=-1, out=lanes)
        else:
            lanes[...] = np.fft.rfft(src[lo:hi], axis=-1)
        done = sfft.fftn(lanes, axes=(2, 1), overwrite_x=True)
        if done.ctypes.data != lanes.ctypes.data:   # not done in place
            lanes[...] = done

    context.run_ranges(transform, src.shape[0], "fft")


def _irfftn_lanes(spec: np.ndarray, mesh: np.ndarray, context) -> None:
    """Inverse c2r FFT of every lane ``spec[b]`` straight into
    ``mesh[b]``; the mirror of :func:`_rfftn_lanes`, on the same pool.
    ``spec`` is consumed (its lanes are transformed in place).

    Per lane range, one call per pass: SciPy's c2c over the two full
    axes, then the c2r over the half axis — NumPy's where it takes
    ``out=`` (nothing is allocated and nothing copied), SciPy's plus a
    copy below NumPy 2.  These are the 1-D pocketfft transforms of the
    stacked ``scipy.fft.ifftn(axes=(1, 2))`` / ``irfft(axis=3)`` pair,
    and give its bytes whatever the range; an all-NumPy ``irfftn`` does
    not, and is slower.
    """
    K = mesh.shape[-1]

    def transform(lo: int, hi: int) -> None:
        tmp = sfft.ifftn(spec[lo:hi], axes=(1, 2), overwrite_x=True)
        if _FFT_OUT:
            np.fft.irfft(tmp, n=K, axis=-1, out=mesh[lo:hi])
        else:
            mesh[lo:hi] = sfft.irfft(tmp, n=K, axis=-1, overwrite_x=True)

    context.run_ranges(transform, spec.shape[0], "ifft")


@dataclass(frozen=True, kw_only=True)
class PMEParams:
    """The PME parameter set of the paper's Table III.

    Keyword-only.

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
        rows of the spreading gather (which every spread on more than
        one worker is), particle rows of the interpolation, FFT lanes,
        half-spectrum modes of the influence and block rows of the
        real-space SpMM are split across them; every split writes
        disjoint outputs in a fixed summation order, so the result is
        the same bytes on ``serial`` and ``threads`` at any worker
        count, for a fixed kernel configuration.
    pairs:
        A :class:`~repro.neighbor.verlet.VerletList` at ``params.r_max``
        that the caller keeps across rebuilds (the integrator's), handed
        to the real-space build; ``None`` searches afresh.  The matrix
        is the same either way.

    Notes
    -----
    The operator is *frozen* to the positions it was built with —
    exactly like line 4 of Algorithm 2, which constructs the PME
    operator once per ``lambda_RPY`` steps.
    """

    def __init__(self, positions, box: Box, params: PMEParams,
                 fluid: FluidParams = REDUCED,
                 cache: MobilityCache | None = None, context=None,
                 pairs=None):
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
        self.timers = obs.PhaseTimer(prefix="pme")
        #: Total number of operator applications (column counts included).
        self.n_applications = 0

        with self.timers.phase("construct_p", **self._exec_args):
            #: The interpolation matrix ``P``, precomputed once per
            #: configuration (paper Section IV.A; Fig. 4).
            self.interp = InterpolationMatrix(self.positions, box,
                                              params.K, params.p)
            if self.context.workers > 1:
                # every spread here is the gather: build P' now, beside
                # P and before the workspaces (a late P' fragments the
                # heap after the workspace arena)
                self.interp.build_rows()
        self.influence = self.cache.influence(
            self.mesh, params.xi, params.p, fluid.radius)
        with self.timers.phase("construct_real"):
            self.real = RealSpaceOperator(
                self.positions, box, params.xi, params.r_max, fluid=fluid,
                context=self.context, cache=self.cache, pairs=pairs)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Operator shape ``(3n, 3n)``."""
        return (3 * self.n, 3 * self.n)

    def apply_block(self, forces, noise=None) -> np.ndarray:
        """``U = M F`` for ``F`` of shape ``(3n,)`` or ``(3n, s)``.

        The one mobility-apply pipeline (:meth:`apply` is this method):
        the reciprocal half (:meth:`apply_reciprocal`) plus the real
        half (:meth:`apply_real`), times the physical prefactor
        ``mu0``.  A flat vector is a one-column block and comes back
        flat.  The whole reciprocal pipeline is amortized across the
        block (paper Sections IV.A-IV.C):

        * one spread for all ``3s`` mesh lanes (a scatter by particle
          for one column on one worker, else the gather over ``P'``;
          the same bytes),
        * forward r2c FFTs of the ``3s`` lanes into one stacked
          half-spectrum, and their inverse transforms (c2c over the
          two full axes + c2r over the half axis) back into the mesh
          workspace the forces were spread on, one call per pass over
          each worker's range of lanes,
        * the influence function in one compiled pass over all
          vectors (``khat``/scalar read once per tile of modes, not
          once per vector; mode ranges over the workers),
        * one interpolation for all ``3s`` lanes (a gather by particle
          row; wider than one column, every lane per visit of a row
          from a lane-interleaved copy of the mesh, so ``P`` is read
          once per pass; the same bytes),
        * one BCSR SpMM for the real-space term (a row's 3x3 blocks
          against all ``s`` lanes while the row is in L1).

        No stage's arithmetic depends on ``s``: column ``j`` is, bytewise,
        the result for column ``j`` alone.  Workspaces are leading lanes
        of the ``MobilityCache`` arena, so repeated applications allocate
        nothing; blocks wider than ``MAX_BLOCK_COLUMNS`` run as passes.
        ``noise`` (half spectra ``W^``, ``(3,) + mesh.rshape`` per
        column, see :meth:`InfluenceFunction.white_noise`) makes it
        ``mu0 (M F + P C^(1/2) W)``: a step's drift and wave-space noise
        from one pass; without it the bytes are the plain apply's.
        """
        f, flat = as_force_block(forces, self.n)
        s = f.shape[1]
        out = self.apply_reciprocal(f, noise)
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

    def apply_reciprocal(self, forces, noise=None) -> np.ndarray:
        """Reciprocal-space contribution in ``mu0`` units (the
        reciprocal half of :meth:`apply_block`, ``noise`` included).

        The six-step mesh pipeline of Section IV.A over all ``3s``
        lanes of the block at once, ``MAX_BLOCK_COLUMNS`` columns per
        pass.  ``forces=None`` is the noise-only pass ``P C^(1/2) W`` of
        a force-free step: no spread and no forward FFT.
        """
        n, K = self.n, self.params.K
        ctx, xargs = self.context, self._exec_args
        f, flat = ((None, noise.ndim == 4) if forces is None
                   else as_force_block(forces, n))
        if noise is not None:
            noise = noise.reshape((3, -1) + self.mesh.rshape)
        cols = noise.shape[1] if f is None else f.shape[1]
        out = np.empty((3 * n, cols))
        for lo in range(0, cols, MAX_BLOCK_COLUMNS):
            s = min(MAX_BLOCK_COLUMNS, cols - lo)
            lanes = 3 * s                   # lane b = component*s + vector
            ws = self.cache.workspace(K, lanes, n)
            g, spec = ws["mesh"], ws["spec"]
            g4 = g.reshape(lanes, K, K, K)

            if f is None:
                spec[...] = 0.0
            else:
                with self.timers.phase("spread", vectors=s, **xargs):
                    self.interp.spread_batch(
                        f[:, lo:lo + s].reshape(n, lanes), out=g,
                        context=ctx)
                with self.timers.phase("fft", vectors=s, **xargs):
                    _rfftn_lanes(g4, spec, ctx)

            with self.timers.phase("influence", vectors=s, **xargs):
                self.influence.apply_batch(
                    spec.reshape((3, s) + self.mesh.rshape),
                    noise=None if noise is None else noise[:, lo:lo + s],
                    context=ctx)

            with self.timers.phase("ifft", vectors=s, **xargs):
                # the forward FFT consumed the spread lanes: the mesh
                # workspace now takes the velocities
                _irfftn_lanes(spec, g4, ctx)

            with self.timers.phase("interpolate", vectors=s, **xargs):
                # the inverse FFT consumed the spectrum: it holds the
                # lane-interleaved mesh of a wide block
                um = self.interp.interpolate_batch(
                    g, out=ws["particle"], context=ctx,
                    scratch=spec.view(np.float64))
                out.reshape(n, 3, cols)[:, :, lo:lo + s] = \
                    um.reshape(3, s, n).transpose(2, 0, 1)
        return out[:, 0] if flat else out

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Densify by applying to the identity (tests / small n only)."""
        return self.apply(np.eye(3 * self.n))

    def memory_report(self) -> dict[str, int]:
        """Bytes held by each persistent component (Fig. 7a accounting)."""
        report = {
            "real_space_matrix": self.real.memory_bytes,
            "influence_function": self.influence.memory_bytes,
            "interpolation_matrix": self.interp.memory_bytes,
            # two K^3 x 3 float mesh arrays (forces and velocities)
            "mesh_arrays": 2 * 3 * 8 * self.params.K ** 3,
        }
        report["total"] = sum(report.values())
        return report

    def phase_breakdown(self) -> dict[str, float]:
        """Accumulated seconds per pipeline phase (Fig. 5 data)."""
        return self.timers.breakdown()
