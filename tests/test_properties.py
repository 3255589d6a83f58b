"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *arbitrary* valid inputs, spanning
several subsystems at once: metamorphic PBC properties, spectral
positivity of the mobility through the matrix-free stack, adjointness
of spreading/interpolation, and translation covariance of the whole
PME operator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, PMEOperator, PMEParams
from repro.pme.spread import InterpolationMatrix
from repro.rpy.ewald import EwaldSummation

settings.register_profile("repro", deadline=None, max_examples=15)
settings.load_profile("repro")


def _positions(n, L, seed):
    return np.random.default_rng(seed).uniform(0, L, size=(n, 3))


@given(st.integers(2, 25), st.integers(0, 10_000))
def test_ewald_mobility_spd_property(n, seed):
    """The periodic RPY mobility is SPD for arbitrary configurations,
    including heavily overlapping ones."""
    box = Box(12.0)
    r = _positions(n, box.length, seed)
    m = EwaldSummation(box=box, tol=1e-6).matrix(r)
    assert np.linalg.eigvalsh(m).min() > 0


@given(st.integers(3, 30), st.integers(0, 10_000))
def test_pme_operator_quadratic_form_positive(n, seed):
    """x^T M x > 0 through the full matrix-free stack (PME accuracy can
    perturb eigenvalues only within e_p, far from flipping signs)."""
    box = Box(14.0)
    r = _positions(n, box.length, seed)
    op = PMEOperator(r, box, PMEParams(xi=0.9, r_max=4.0, K=32, p=4))
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(3 * n)
    assert float(x @ op.apply(x)) > 0


@given(st.integers(2, 40), st.integers(0, 10_000),
       st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
def test_pme_translation_covariance(n, seed, dx, dy, dz):
    """Rigid translation of all particles leaves M f unchanged.

    The exact operator is exactly translation invariant; PME breaks it
    only through mesh registration, i.e. at the level of the PME error
    e_p — so the tolerance is a small multiple of e_p for these
    parameters (xi h ~ 0.2, p = 6 -> e_p ~ 1e-4).
    """
    box = Box(10.0)
    r = _positions(n, box.length, seed)
    params = PMEParams(xi=1.0, r_max=4.0, K=48, p=6)
    f = np.random.default_rng(seed + 2).standard_normal(3 * n)
    u1 = PMEOperator(r, box, params).apply(f)
    u2 = PMEOperator(r + np.array([dx, dy, dz]), box, params).apply(f)
    np.testing.assert_allclose(u2, u1, atol=1e-3 * max(1.0, np.abs(u1).max()))


@given(st.integers(1, 30), st.integers(4, 6), st.integers(0, 10_000))
def test_spread_interpolate_adjoint_property(n, p, seed):
    """<P^T f, U> == <f, P U> for arbitrary configurations and orders."""
    box = Box(9.0)
    K = 16
    r = _positions(n, box.length, seed)
    interp = InterpolationMatrix(r, box, K, p)
    rng = np.random.default_rng(seed + 3)
    f = rng.standard_normal(n)
    u = rng.standard_normal(K ** 3)
    lhs = float(np.dot(interp.spread(f), u))
    rhs = float(np.dot(f, interp.interpolate(u)))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(st.integers(1, 30), st.integers(0, 10_000))
def test_spreading_conserves_charge_property(n, seed):
    """Total spread weight equals total particle weight (any config)."""
    box = Box(7.0)
    r = _positions(n, box.length, seed)
    interp = InterpolationMatrix(r, box, 16, 6)
    f = np.random.default_rng(seed + 4).standard_normal(n)
    assert interp.spread(f).sum() == pytest.approx(f.sum(), rel=1e-9,
                                                   abs=1e-9)


@given(st.integers(2, 20), st.integers(0, 10_000))
def test_cell_list_translation_invariance(n, seed):
    """The pair list is invariant under rigid translation (mod wrap)."""
    from repro.neighbor.pairs import canonicalize_pairs, find_pairs
    box = Box(8.0)
    r = _positions(n, box.length, seed)
    shift = np.random.default_rng(seed + 5).uniform(-20, 20, size=3)
    p1 = canonicalize_pairs(*find_pairs(r, box, 2.5))
    p2 = canonicalize_pairs(*find_pairs(r + shift, box, 2.5))
    np.testing.assert_array_equal(p1[0], p2[0])
    np.testing.assert_array_equal(p1[1], p2[1])


@given(st.integers(2, 15), st.integers(0, 10_000))
def test_mobility_reciprocity_property(n, seed):
    """Lorentz reciprocity: the velocity particle i gets from a force on
    j equals what j gets from the same force on i (M symmetric),
    through the PME operator."""
    box = Box(12.0)
    r = _positions(n, box.length, seed)
    op = PMEOperator(r, box, PMEParams(xi=0.9, r_max=4.0, K=24, p=4))
    rng = np.random.default_rng(seed + 6)
    i, j = rng.integers(0, n, size=2)
    fi = np.zeros(3 * n)
    fj = np.zeros(3 * n)
    fi[3 * i] = 1.0      # unit x-force on i
    fj[3 * j + 1] = 1.0  # unit y-force on j
    u_from_i = op.apply(fi)
    u_from_j = op.apply(fj)
    assert u_from_i[3 * j + 1] == pytest.approx(u_from_j[3 * i], rel=1e-6,
                                                abs=1e-9)
