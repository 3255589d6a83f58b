"""Measurement of the PME relative error ``e_p`` (paper Section V.B).

The paper defines ``e_p = ||u_pme - u_exact||_2 / ||u_exact||_2`` where
``u_exact`` is "computed with very high accuracy, possibly by a
different method".  Here the reference is the dense Ewald summation
(tight tolerance) for small systems, or a PME operator with a split of
its own, tuned two orders of magnitude tighter, for systems too large
to densify.
"""

from __future__ import annotations

import numpy as np

from ..geometry.box import Box
from ..lint.contracts import positions_arg
from ..rpy.ewald import EwaldSummation
from ..units import FluidParams, REDUCED
from .operator import PMEOperator, PMEParams
from .tuning import (VALIDATED_ORDERS, estimate_errors, real_space_error,
                     tune_parameters)

__all__ = ["pme_relative_error", "reference_operator"]

#: Largest particle count for which the dense Ewald reference is used.
DENSE_REFERENCE_LIMIT = 600


@positions_arg()
def reference_operator(positions, box: Box, params: PMEParams,
                       fluid: FluidParams = REDUCED):
    """A high-accuracy reference ``u = M f`` callable for ``e_p`` measurement.

    Small systems use the dense Ewald matrix with ``tol = 1e-12``;
    larger systems use a PME operator whose split is its own: tuned
    (order 8, the default cutoff grid) for a hundredth of the error
    :func:`~repro.pme.tuning.estimate_errors` gives ``params`` — of its
    real-space term alone at a spline order the reciprocal estimate
    does not cover, a lower bound that only makes the reference
    tighter.  It shares neither ``xi`` nor ``r_max`` with the operator
    under test, so a real-space truncation error of that operator is
    measured in full however close its cutoff is to ``L/2``.
    """
    r = np.asarray(positions, dtype=np.float64)
    n = r.shape[0]
    if n <= DENSE_REFERENCE_LIMIT:
        matrix = EwaldSummation(box=box, fluid=fluid, tol=1e-12).matrix(r)
        return lambda f: matrix @ f
    if params.p in VALIDATED_ORDERS:
        estimate = estimate_errors(params, box, n, fluid)["total"]
    else:
        estimate = float(real_space_error(params.xi, params.r_max, n, box,
                                          fluid.radius, params.kernel))
    fine = tune_parameters(n, box, target_ep=max(estimate / 100, 1e-12),
                           p=8, fluid=fluid, kernel=params.kernel)
    op = PMEOperator(r, box, fine, fluid=fluid)
    return op.apply


def pme_relative_error(op: PMEOperator, n_probe: int = 3, seed: int = 1234,
                       reference=None) -> float:
    """Measured relative error ``e_p`` of a PME operator.

    Applies the operator and a high-accuracy reference to ``n_probe``
    random force vectors and returns the largest relative 2-norm
    deviation.

    Parameters
    ----------
    op:
        The operator under test (its stored positions are used).
    n_probe:
        Number of random probe vectors.
    seed:
        RNG seed for the probes (deterministic by default).
    reference:
        Optional callable ``f -> u`` overriding the automatic choice of
        :func:`reference_operator`.
    """
    if reference is None:
        reference = reference_operator(op.positions, op.box, op.params,
                                       fluid=op.fluid)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probe):
        f = rng.standard_normal(3 * op.n)
        f /= np.linalg.norm(f)
        u_pme = op.apply(f)
        u_ref = np.asarray(reference(f))
        err = float(np.linalg.norm(u_pme - u_ref) / np.linalg.norm(u_ref))
        worst = max(worst, err)
    return worst
