"""Particle-mesh Ewald (PME) for the RPY tensor — the paper's contribution.

The reciprocal-space Ewald sum is evaluated on a regular ``K^3`` mesh
with cardinal B-spline interpolation (smooth PME), 3D real-to-complex
FFTs, and a precomputed scalar influence function; the real-space sum
is a block-sparse matrix over short-range pairs.  The composed
:class:`~repro.pme.operator.PMEOperator` multiplies the periodic RPY
mobility matrix by force vectors in ``O(n log n)`` time and ``O(n)``
memory without ever forming the matrix (paper Sections III.A and IV).

Module layout mirrors the paper's six-step reformulation
(Section IV.A):

* :mod:`~repro.pme.bspline`   -- cardinal B-splines ``W_p`` and Euler
  exponential-spline coefficients ``b(k)``,
* :mod:`~repro.pme.mesh`      -- the ``K^3`` mesh and its wavevectors,
* :mod:`~repro.pme.spread`    -- step 1 (construct ``P``), step 2
  (spreading) and step 6 (interpolation) as sparse products,
* :mod:`~repro.pme.influence` -- step 4, the scalar influence function,
* :mod:`~repro.pme.realspace` -- the short-range BCSR operator,
* :mod:`~repro.pme.operator`  -- the composed matrix-free operator,
* :mod:`~repro.pme.tuning`    -- selection of ``(alpha, r_max, K, p)``
  for a target relative error ``e_p`` at the lowest block-step cost
  on this substrate (Table III),
* :mod:`~repro.pme.accuracy`  -- measurement of ``e_p`` against a
  reference (Section V.B).
"""

from .bspline import bspline_weights, bspline_value, euler_spline_modulus
from .mesh import Mesh
from .spread import InterpolationMatrix, spread_on_the_fly, interpolate_on_the_fly
from .influence import InfluenceFunction
from .realspace import RealSpaceOperator
from .cache import MobilityCache
from .operator import PMEOperator, PMEParams
from .tuning import tune_parameters, rank_candidates, estimate_errors
from .accuracy import pme_relative_error

__all__ = [
    "bspline_weights",
    "bspline_value",
    "euler_spline_modulus",
    "Mesh",
    "InterpolationMatrix",
    "spread_on_the_fly",
    "interpolate_on_the_fly",
    "InfluenceFunction",
    "RealSpaceOperator",
    "MobilityCache",
    "PMEOperator",
    "PMEParams",
    "tune_parameters",
    "rank_candidates",
    "estimate_errors",
    "pme_relative_error",
]
