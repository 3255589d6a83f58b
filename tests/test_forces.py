"""Tests for the force models."""

import numpy as np
import pytest

from repro import Box
from repro.core.forces import (
    CompositeForce,
    ConstantForce,
    HarmonicBonds,
    RepulsiveHarmonic,
)
from repro.errors import ConfigurationError
from repro.neighbor import brute_force_pairs
from repro.neighbor.pairs import find_pairs
from repro.systems import random_suspension


def _numerical_gradient(field, r, eps=1e-6):
    grad = np.zeros_like(r)
    for i in range(r.shape[0]):
        for d in range(3):
            rp = r.copy()
            rp[i, d] += eps
            rm = r.copy()
            rm[i, d] -= eps
            grad[i, d] = (field.energy(rp) - field.energy(rm)) / (2 * eps)
    return grad


class TestRepulsiveHarmonic:
    def test_zero_beyond_contact(self):
        box = Box(20.0)
        field = RepulsiveHarmonic(box)
        r = np.array([[5.0, 5.0, 5.0], [9.0, 5.0, 5.0]])  # dist 4 > 2a
        np.testing.assert_allclose(field.forces(r), 0.0)
        assert field.energy(r) == 0.0

    def test_overlapping_pair_repels(self):
        box = Box(20.0)
        field = RepulsiveHarmonic(box)
        r = np.array([[5.0, 5.0, 5.0], [6.5, 5.0, 5.0]])  # dist 1.5 < 2a
        f = field.forces(r)
        assert f[0, 0] < 0          # particle 0 pushed in -x
        assert f[1, 0] > 0          # particle 1 pushed in +x
        np.testing.assert_allclose(f[0], -f[1])   # Newton's third law

    def test_paper_force_magnitude(self):
        # |f| = 125 |r - 2a| at r = 1.5, a = 1 -> 62.5
        box = Box(20.0)
        field = RepulsiveHarmonic(box)
        r = np.array([[5.0, 5.0, 5.0], [6.5, 5.0, 5.0]])
        f = field.forces(r)
        assert np.linalg.norm(f[0]) == pytest.approx(125.0 * 0.5)

    def test_force_is_negative_energy_gradient(self):
        box = Box(12.0)
        field = RepulsiveHarmonic(box)
        rng = np.random.default_rng(3)
        r = rng.uniform(0, box.length, size=(8, 3))  # some overlaps likely
        # ensure at least one overlap
        r[1] = r[0] + np.array([1.4, 0.3, 0.0])
        forces = field.forces(r)
        grad = _numerical_gradient(field, r)
        np.testing.assert_allclose(forces, -grad, atol=1e-5)

    def test_total_force_zero(self):
        box = Box(10.0)
        field = RepulsiveHarmonic(box)
        rng = np.random.default_rng(4)
        r = rng.uniform(0, box.length, size=(20, 3))
        np.testing.assert_allclose(field.forces(r).sum(axis=0), 0.0,
                                   atol=1e-10)

    def test_periodic_contact(self):
        box = Box(10.0)
        field = RepulsiveHarmonic(box)
        r = np.array([[0.3, 5.0, 5.0], [9.8, 5.0, 5.0]])  # dist 0.5 via PBC
        f = field.forces(r)
        assert f[0, 0] > 0          # pushed away across the boundary
        assert f[1, 0] < 0

    def test_non_overlapping_suspension_force_free(self):
        susp = random_suspension(50, 0.2, seed=0)
        field = RepulsiveHarmonic(susp.box)
        np.testing.assert_allclose(field.forces(susp.positions), 0.0)

    def test_rejects_bad_stiffness(self):
        with pytest.raises(ConfigurationError):
            RepulsiveHarmonic(Box(10.0), stiffness=0.0)

    def test_overlapping_forces_match_brute_force_and_repeat_bytewise(self):
        # the force path's pair order is the engine's: the values are the
        # brute-force accumulation's to round-off, and the bytes repeat
        # on a list-reuse step, after invalidate() and on a fresh instance
        box = Box(14.0)
        rng = np.random.default_rng(11)
        r = rng.uniform(0, box.length, size=(120, 3))   # ideal gas: overlaps
        field = RepulsiveHarmonic(box)

        def reference(r):
            i, j = brute_force_pairs(r, box, field.contact)
            rij, dist = box.distances(r, i, j)
            fij = (-field.stiffness * (dist - field.contact)
                   / dist)[:, None] * rij
            out = np.zeros_like(r)
            np.add.at(out, i, fij)
            np.add.at(out, j, -fij)
            return out, i.size

        ref, n_overlaps = reference(r)
        assert n_overlaps > 20
        f = field.forces(r)
        np.testing.assert_allclose(f, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())
        moved = box.wrap(r + 0.02 * rng.standard_normal(r.shape))
        np.testing.assert_allclose(field.forces(moved), reference(moved)[0],
                                   rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert field.forces(r).tobytes() == f.tobytes()
        assert field._verlet.n_rebuilds == 1        # both were reuse steps
        field._verlet.invalidate()
        assert field.forces(r).tobytes() == f.tobytes()
        assert field._verlet.n_rebuilds == 2
        assert RepulsiveHarmonic(box).forces(r).tobytes() == f.tobytes()

    @pytest.mark.parametrize("outside", [False, True],
                             ids=["wrapped", "outside"])
    def test_force_bytes_are_those_of_two_numpy_passes(self, outside,
                                                       kernel_mode):
        # candidates filtered on the wrapped positions (strict), the
        # survivors' separations taken from the positions as given
        # (<= contact), summed in list order: for wrapped input the
        # filter's separations are handed on, the bytes are the same
        box = Box(14.0)
        rng = np.random.default_rng(12)
        r = rng.uniform(0, box.length, size=(150, 3))
        if outside:
            r = r + box.length * rng.integers(-3, 4, size=r.shape)
        field = RepulsiveHarmonic(box)

        def separations(x, i, j):
            d = x[i] - x[j]
            rij = d - box.length * np.round(d / box.length)
            return rij, np.linalg.norm(rij, axis=1)

        wrapped = box.wrap(r)
        i, j = find_pairs(wrapped, box, field.contact + field._verlet.skin)
        keep = separations(wrapped, i, j)[1] < field.contact
        i, j = i[keep], j[keep]
        rij, dist = separations(r, i, j)
        keep = dist <= field.contact
        i, j, rij, dist = i[keep], j[keep], rij[keep], dist[keep]
        assert i.size > 20
        fij = (-field.stiffness * (dist - field.contact) / dist)[:, None] * rij
        want = np.zeros_like(r)
        np.add.at(want, i, fij)
        np.add.at(want, j, -fij)
        assert field.forces(r).tobytes() == want.tobytes()
        assert field.energy(r) == float(
            0.5 * field.stiffness * np.sum((dist - field.contact) ** 2))


class TestHarmonicBonds:
    def test_force_is_negative_energy_gradient(self):
        box = Box(20.0)
        bonds = np.array([[0, 1], [1, 2]])
        field = HarmonicBonds(box, bonds, stiffness=10.0, rest_length=2.5)
        r = np.array([[5.0, 5.0, 5.0], [7.8, 5.2, 5.0], [10.0, 5.5, 4.8]])
        np.testing.assert_allclose(field.forces(r),
                                   -_numerical_gradient(field, r), atol=1e-5)

    def test_rest_length_equilibrium(self):
        box = Box(20.0)
        field = HarmonicBonds(box, np.array([[0, 1]]), 10.0, 3.0)
        r = np.array([[5.0, 5.0, 5.0], [8.0, 5.0, 5.0]])
        np.testing.assert_allclose(field.forces(r), 0.0, atol=1e-12)
        assert field.energy(r) == pytest.approx(0.0)

    def test_stretched_bond_pulls_together(self):
        box = Box(20.0)
        field = HarmonicBonds(box, np.array([[0, 1]]), 10.0, 2.0)
        r = np.array([[5.0, 5.0, 5.0], [9.0, 5.0, 5.0]])  # stretched to 4
        f = field.forces(r)
        assert f[0, 0] > 0
        assert f[1, 0] < 0

    def test_bond_across_periodic_boundary(self):
        box = Box(10.0)
        field = HarmonicBonds(box, np.array([[0, 1]]), 10.0, 2.0)
        r = np.array([[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]])  # dist 1 via PBC
        f = field.forces(r)
        # compressed bond pushes apart: particle 0 toward +x
        assert f[0, 0] > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HarmonicBonds(Box(5.0), np.array([[0, 1, 2]]), 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            HarmonicBonds(Box(5.0), np.array([[0, 1]]), -1.0, 1.0)


class TestConstantAndComposite:
    def test_constant_force(self):
        field = ConstantForce(np.array([0.0, 0.0, -2.0]))
        r = np.zeros((4, 3))
        f = field.forces(r)
        np.testing.assert_allclose(f, [[0, 0, -2.0]] * 4)

    def test_constant_force_shape_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantForce(np.zeros(2))

    def test_composite_sums(self):
        box = Box(20.0)
        g = ConstantForce(np.array([0.0, 0.0, -1.0]))
        rep = RepulsiveHarmonic(box)
        comp = CompositeForce(g, rep)
        r = np.array([[5.0, 5.0, 5.0], [6.5, 5.0, 5.0]])
        np.testing.assert_allclose(comp.forces(r),
                                   g.forces(r) + rep.forces(r))
        assert comp.energy(r) == pytest.approx(g.energy(r) + rep.energy(r))

    def test_composite_requires_fields(self):
        with pytest.raises(ConfigurationError):
            CompositeForce()
