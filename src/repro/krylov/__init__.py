"""Krylov-subspace computation of Brownian displacements.

The canonical way to sample ``g ~ N(0, 2 kT dt M)`` is ``g = sqrt(2 kT
dt) S z`` with ``S`` the Cholesky factor of the mobility matrix — which
requires ``M`` explicitly.  With the matrix-free PME operator the paper
instead uses the Krylov (Lanczos) method of Ando, Chow, Saad & Skolnick
(J. Chem. Phys. 137, 064106 (2012); paper reference [8]): after ``m``
Lanczos steps with starting vector ``z``,

    M^(1/2) z  ~  ||z|| V_m T_m^(1/2) e_1

Any square root of the covariance gives correctly distributed samples;
Lanczos converges to the *principal* square root action, which is what
the tests compare against.

Because Algorithm 2 generates ``lambda_RPY`` displacement vectors per
mobility update, the *block* Lanczos variant processes all of them
simultaneously — fewer iterations per vector and block (multi-RHS)
SpMV/PME applications (paper Section III.B).

Modules:

* :mod:`~repro.krylov.block_lanczos` -- block Lanczos square root (a
  single vector is a block of one column),
* :mod:`~repro.krylov.chebyshev` -- Chebyshev polynomial square root,
* :mod:`~repro.krylov.reference` -- dense references (eigendecomposition
  square root, Cholesky sampling).
"""

from .block_lanczos import LanczosInfo, block_lanczos_sqrt
from .chebyshev import chebyshev_sqrt, eigenvalue_bounds
from .reference import dense_sqrt_apply, cholesky_displacements, dense_sqrtm

__all__ = [
    "block_lanczos_sqrt",
    "chebyshev_sqrt",
    "eigenvalue_bounds",
    "LanczosInfo",
    "dense_sqrt_apply",
    "cholesky_displacements",
    "dense_sqrtm",
]
