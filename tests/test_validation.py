"""Argument validation of the public entry points.

Every entry point that takes particle positions, a force operand, a
Krylov starting block or a trajectory checks it in its own body with
:mod:`repro.utils.validation`: a malformed array raises
:class:`~repro.errors.ConfigurationError` before any arithmetic, and
nested-list positions are accepted and normalised to the ``(n, 3)``
float64 array the ndarray call sees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.msd import mean_squared_displacement
from repro.analysis.rdf import radial_distribution
from repro.core.brownian import CholeskyBrownianGenerator, KrylovBrownianGenerator
from repro.core.forces import CompositeForce, ConstantForce
from repro.errors import ConfigurationError
from repro.exec import INLINE
from repro.geometry.box import Box
from repro.krylov.block_lanczos import block_lanczos_sqrt
from repro.neighbor.pairs import find_pairs
from repro.neighbor.verlet import VerletList
from repro.parallel.engine import ColoredPMEEngine
from repro.pme.accuracy import reference_operator
from repro.pme.operator import PMEOperator, PMEParams
from repro.pme.realspace import RealSpaceOperator
from repro.pme.spread import InterpolationMatrix
from repro.rpy.ewald import EwaldSummation, ewald_mobility_matrix
from repro.rpy.tensor import mobility_matrix_free

BOX = Box(12.0)
PARAMS = PMEParams(xi=0.5, r_max=5.0, K=8, p=4)
#: Four particles as a nested list of Python numbers (ints included).
NESTED = [[1, 1, 1], [4.0, 1.5, 2.0], [2.0, 5.0, 3.0], [7.0, 7.5, 9.0]]
R = np.array(NESTED, dtype=np.float64)
D = 3 * R.shape[0]
F = np.linspace(-1.0, 1.0, D)
PI, PJ = np.array([0, 1, 2]), np.array([1, 2, 3])
FORCE = ConstantForce([0.0, 0.0, -1.0])

#: Entry points taking ``positions``; each maps positions to a result.
POSITIONS_ENTRY_POINTS = {
    "Box.wrap": lambda r: BOX.wrap(r),
    "Box.fractional": lambda r: BOX.fractional(r, 8),
    "Box.distances": lambda r: BOX.distances(r, PI, PJ),
    "Box.pairs_within": lambda r: BOX.pairs_within(r, PI, PJ, 5.0),
    "InterpolationMatrix": lambda r: InterpolationMatrix(r, BOX, 8, 4).weights,
    "RealSpaceOperator": lambda r: RealSpaceOperator(r, BOX, 0.5, 5.0).apply(F),
    "PMEOperator": lambda r: PMEOperator(r, BOX, PARAMS).apply(F),
    "reference_operator": lambda r: reference_operator(r, BOX, PARAMS)(F),
    "radial_distribution": lambda r: radial_distribution(r, BOX, 5.0, 4),
    "ConstantForce.energy": lambda r: FORCE.energy(r),
    "CompositeForce.forces": lambda r: CompositeForce(FORCE).forces(r),
    "CompositeForce.energy": lambda r: CompositeForce(FORCE).energy(r),
    "VerletList.pairs": lambda r: VerletList(BOX, 5.0).pairs(r),
    "find_pairs": lambda r: find_pairs(r, BOX, 5.0),
    "EwaldSummation.matrix": lambda r: EwaldSummation(box=BOX).matrix(r),
    "EwaldSummation.apply": lambda r: EwaldSummation(box=BOX).apply(r, F),
    "ewald_mobility_matrix": lambda r: ewald_mobility_matrix(r, BOX),
    "mobility_matrix_free": lambda r: mobility_matrix_free(r),
}


def _force_entry_points():
    """Entry points taking a ``(3n,)`` / ``(3n, s)`` force operand."""
    real = RealSpaceOperator(R, BOX, 0.5, 5.0)
    pme = PMEOperator(R, BOX, PARAMS)
    ewald = EwaldSummation(box=BOX)
    return {
        "BlockCSR.matvec": real.bcsr.matvec,
        "BlockCSR.matmat": real.bcsr.matmat,
        "RealSpaceOperator.apply_block": real.apply_block,
        "PMEOperator.apply_block": pme.apply_block,
        "EwaldSummation.apply": lambda f: ewald.apply(R, f),
    }


MALFORMED_FORCES = {
    "0-d": np.float64(1.0),
    "3-d": np.ones((D, 2, 1)),
    "rows-not-multiple-of-3": np.ones(D + 1),
    "rows-not-3n": np.ones(D + 3),
    "zero-width": np.ones((D, 0)),
}

FORCE_CASES = [
    (entry, case) for entry in ("BlockCSR.matvec", "BlockCSR.matmat",
                                "RealSpaceOperator.apply_block",
                                "PMEOperator.apply_block",
                                "EwaldSummation.apply")
    for case in MALFORMED_FORCES
    # the dense reference promises only a ValueError for a multiple of 3
    # rows that is not 3n
    if (entry, case) != ("EwaldSummation.apply", "rows-not-3n")
]


def _same(a, b) -> None:
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
        return
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("entry", sorted(POSITIONS_ENTRY_POINTS))
def test_rejects_n_by_2_positions(entry):
    with pytest.raises(ConfigurationError,
                       match=r"positions must have shape \(n, 3\)"):
        POSITIONS_ENTRY_POINTS[entry](np.zeros((4, 2)))


@pytest.mark.parametrize("entry", sorted(POSITIONS_ENTRY_POINTS))
def test_nested_list_positions_are_normalised(entry):
    run = POSITIONS_ENTRY_POINTS[entry]
    _same(run(NESTED), run(R.copy()))


@pytest.mark.parametrize("entry,case", FORCE_CASES)
def test_rejects_malformed_force_operand(entry, case):
    apply = _force_entry_points()[entry]
    with pytest.raises(ConfigurationError):
        apply(MALFORMED_FORCES[case])


@pytest.mark.parametrize("entry", ["BlockCSR.matvec", "RealSpaceOperator.apply_block",
                                   "PMEOperator.apply_block", "EwaldSummation.apply"])
def test_accepts_flat_and_blocked_forces(entry):
    apply = _force_entry_points()[entry]
    block = np.stack([F, 2.0 * F], axis=1)
    out = apply(block)
    assert out.shape == (D, 2)
    assert apply(F).shape == (D,)


def _batch_entry_points():
    """``spread_batch`` / ``interpolate_batch`` of a 40-particle ``P`` (and
    of the colored schedule on it) on a 16^3 mesh, each given one
    malformed array: a narrow (3-lane) and a wide (6-lane) block, as the
    two routes differ."""
    r = np.random.default_rng(0).uniform(0, 12, (40, 3))
    m = InterpolationMatrix(r, BOX, 16, 4)
    colored = ColoredPMEEngine(r, BOX, 16, 4, weights=m.weights,
                               columns=m.columns, context=INLINE)
    k3 = 16 ** 3
    mesh3, mesh6 = np.zeros((3, k3)), np.zeros((6, k3))
    return {
        "interpolate-out-rows": lambda: m.interpolate_batch(
            mesh6, out=np.empty((6, 39))),
        "interpolate-out-rows-narrow": lambda: m.interpolate_batch(
            mesh3, out=np.empty((3, 39))),
        "interpolate-out-float32": lambda: m.interpolate_batch(
            mesh6, out=np.empty((6, 40), dtype=np.float32)),
        "interpolate-out-fortran": lambda: m.interpolate_batch(
            mesh6, out=np.empty((6, 40), order="F")),
        "interpolate-out-readonly": lambda: m.interpolate_batch(
            mesh6, out=np.broadcast_to(np.empty(40), (6, 40))),
        "interpolate-mesh-points": lambda: m.interpolate_batch(
            np.zeros((6, 100))),
        "interpolate-mesh-1d": lambda: m.interpolate_batch(np.zeros(k3)),
        "interpolate-scratch-short": lambda: m.interpolate_batch(
            mesh6, scratch=np.empty(6 * k3 - 1)),
        "interpolate-scratch-complex": lambda: m.interpolate_batch(
            mesh6, scratch=np.empty(6 * k3, dtype=np.complex128)),
        "interpolate-scratch-strided": lambda: m.interpolate_batch(
            mesh6, scratch=np.empty(12 * k3)[::2]),
        "spread-out-points": lambda: m.spread_batch(
            np.zeros((40, 6)), out=np.empty((6, 100))),
        "spread-out-points-narrow": lambda: m.spread_batch(
            np.zeros((40, 3)), out=np.empty((3, 100))),
        "spread-out-float32": lambda: m.spread_batch(
            np.zeros((40, 6)), out=np.empty((6, k3), dtype=np.float32)),
        "spread-out-fortran": lambda: m.spread_batch(
            np.zeros((40, 6)), out=np.empty((6, k3), order="F")),
        "spread-values-rows": lambda: m.spread_batch(np.zeros((39, 6))),
        "spread-values-1d": lambda: m.spread_batch(np.zeros(40)),
        # the colored reference schedule's pair takes the same checks
        "colored-interpolate-out-rows": lambda: colored.interpolate_batch(
            mesh6, out=np.empty((6, 39))),
        "colored-interpolate-mesh-points": lambda: colored.interpolate_batch(
            np.zeros((6, 100)), out=np.empty((6, 40))),
        "colored-spread-out-points": lambda: colored.spread_batch(
            np.zeros((40, 6)), out=np.empty((6, 100))),
        "colored-spread-values-rows": lambda: colored.spread_batch(
            np.zeros((39, 6)), out=np.empty((6, k3))),
    }


@pytest.mark.parametrize("case", sorted(_batch_entry_points()))
def test_batch_spread_and_interpolate_reject_malformed_arrays(case):
    # a wrong shape, dtype, layout or a read-only output raises before
    # any kernel reads or writes out of bounds
    with pytest.raises(ConfigurationError, match="must"):
        _batch_entry_points()[case]()


def _generators():
    m = mobility_matrix_free(R)
    return {
        "CholeskyBrownianGenerator.generate":
            lambda z: CholeskyBrownianGenerator(kT=1.0, dt=1e-3).generate(m, z),
        "KrylovBrownianGenerator.generate":
            lambda z: KrylovBrownianGenerator(kT=1.0, dt=1e-3).generate(m, z),
        "block_lanczos_sqrt": lambda z: block_lanczos_sqrt(m, z),
    }


@pytest.mark.parametrize("entry,z", [
    ("CholeskyBrownianGenerator.generate", np.float64(1.0)),
    ("CholeskyBrownianGenerator.generate", np.ones((D, 2, 1))),
    ("KrylovBrownianGenerator.generate", np.float64(1.0)),
    ("KrylovBrownianGenerator.generate", np.ones((D, 2, 1))),
    ("block_lanczos_sqrt", np.ones(D)),
    ("block_lanczos_sqrt", np.ones((D, 2, 1))),
], ids=["cholesky-0d", "cholesky-3d", "krylov-0d", "krylov-3d",
        "lanczos-1d", "lanczos-3d"])
def test_rejects_wrong_rank_z(entry, z):
    with pytest.raises(ConfigurationError, match="z must be"):
        _generators()[entry](z)


@pytest.mark.parametrize("shape", [(5, 4), (5, 4, 2), (5, 4, 3, 1)])
def test_msd_rejects_non_trajectory(shape):
    with pytest.raises(ConfigurationError,
                       match=r"positions must have shape \(T, n, 3\)"):
        mean_squared_displacement(np.zeros(shape))
