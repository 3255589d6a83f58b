"""Rotne-Prager-Yamakawa (RPY) hydrodynamics.

This subpackage implements the hydrodynamic mobility model used by the
paper (Section II):

* :mod:`repro.rpy.tensor` -- the free-space RPY pair tensor and the dense
  free-boundary mobility matrix,
* :mod:`repro.rpy.beenakker` -- Beenakker's Ewald decomposition of the
  RPY tensor for periodic boundary conditions (real-space, reciprocal-
  space, and self scalar functions),
* :mod:`repro.rpy.ewald` -- the conventional dense Ewald-summed mobility
  matrix (the substrate of Algorithm 1, the baseline "Ewald BD").
"""

from .tensor import (
    rpy_pair_tensors,
    rpy_self_tensor,
    mobility_matrix_free,
)
from .beenakker import (
    real_space_coefficients,
    reciprocal_scalar,
    self_mobility_scalar,
    real_space_cutoff,
    reciprocal_cutoff,
)
from .ewald import EwaldSummation, ewald_mobility_matrix

__all__ = [
    "rpy_pair_tensors",
    "rpy_self_tensor",
    "mobility_matrix_free",
    "real_space_coefficients",
    "reciprocal_scalar",
    "self_mobility_scalar",
    "real_space_cutoff",
    "reciprocal_cutoff",
    "EwaldSummation",
    "ewald_mobility_matrix",
]
