"""Tests for suspension and lattice generators."""

import hashlib

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.sparse.kernels import rsa_grid
from repro.systems import (
    bead_spring_chain,
    fcc_positions,
    lattice_suspension,
    make_suspension,
    random_suspension,
    simple_cubic_positions,
)


class TestLattices:
    def test_simple_cubic_count_and_bounds(self):
        r = simple_cubic_positions(27, 9.0)
        assert r.shape == (27, 3)
        assert np.all(r >= 0) and np.all(r < 9.0)

    def test_simple_cubic_partial_fill(self):
        r = simple_cubic_positions(20, 9.0)
        assert r.shape == (20, 3)
        # all sites distinct
        assert len({tuple(row) for row in np.round(r, 9)}) == 20

    def test_simple_cubic_spacing(self):
        r = simple_cubic_positions(8, 10.0)
        dists = np.linalg.norm(r[0] - r[1:], axis=1)
        assert dists.min() == pytest.approx(5.0)

    def test_fcc_count(self):
        r = fcc_positions(32, 10.0)
        assert r.shape == (32, 3)
        assert len({tuple(row) for row in np.round(r, 9)}) == 32

    def test_fcc_nearest_neighbor(self):
        # 4 sites/cell, 1 cell: nn distance = L/sqrt(2)/1 * 1/... = L*sqrt(2)/2
        r = fcc_positions(4, 10.0)
        d = np.linalg.norm(r[0] - r[1:], axis=1)
        assert d.min() == pytest.approx(10.0 / np.sqrt(2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            simple_cubic_positions(0, 5.0)
        with pytest.raises(ConfigurationError):
            fcc_positions(-1, 5.0)


class TestRandomSuspension:
    def test_no_overlap(self):
        susp = random_suspension(100, 0.2, seed=0)
        assert susp.min_separation() >= 2.0

    def test_volume_fraction(self):
        susp = random_suspension(50, 0.15, seed=1)
        assert susp.volume_fraction == pytest.approx(0.15)

    def test_deterministic_seed(self):
        s1 = random_suspension(30, 0.1, seed=5)
        s2 = random_suspension(30, 0.1, seed=5)
        np.testing.assert_array_equal(s1.positions, s2.positions)

    def test_different_seeds_differ(self):
        s1 = random_suspension(30, 0.1, seed=5)
        s2 = random_suspension(30, 0.1, seed=6)
        assert not np.allclose(s1.positions, s2.positions)

    def test_positions_in_box(self):
        susp = random_suspension(60, 0.25, seed=2)
        assert np.all(susp.positions >= 0)
        assert np.all(susp.positions < susp.box.length)

    def test_invalid_phi(self):
        with pytest.raises(ConfigurationError):
            random_suspension(10, 0.0)
        with pytest.raises(ConfigurationError):
            random_suspension(10, 0.8)


class TestLatticeSuspension:
    @pytest.mark.parametrize("phi", [0.2, 0.35, 0.45])
    def test_no_overlap_dense(self, phi):
        susp = lattice_suspension(108, phi, seed=0)
        assert susp.min_separation() >= 2.0 - 1e-9

    def test_jitter_breaks_lattice(self):
        s0 = lattice_suspension(32, 0.3, seed=0, jitter=0.0)
        s1 = lattice_suspension(32, 0.3, seed=0, jitter=0.3)
        assert not np.allclose(s0.positions, s1.positions)

    def test_volume_fraction(self):
        susp = lattice_suspension(64, 0.4, seed=1)
        assert susp.volume_fraction == pytest.approx(0.4)


class TestMakeSuspension:
    def test_auto_choice_runs_both_regimes(self):
        dilute = make_suspension(40, 0.1, seed=0)
        dense = make_suspension(40, 0.4, seed=0)
        assert dilute.min_separation() >= 2.0
        assert dense.min_separation() >= 2.0 - 1e-9

    def test_rsa_depends_only_on_the_pair_set(self, monkeypatch):
        # random sequential addition reads the pair *set*, so the
        # generated bytes do not depend on the search's pair order
        import repro.systems.suspension as suspension
        from repro.neighbor import brute_force_pairs
        expected = make_suspension(300, 0.2, seed=3).positions.tobytes()
        monkeypatch.setattr(suspension, "find_pairs", brute_force_pairs)
        assert make_suspension(300, 0.2, seed=3).positions.tobytes() \
            == expected

    @pytest.mark.parametrize("n,phi", [(500, 0.2), (200, 0.4)])
    def test_generator_bytes_across_kernel_modes(self, n, phi,
                                                 set_kernel_mode):
        # the compiled cell list and the kd-tree fallback return the same
        # arrays, so random sequential addition (Phi 0.2) and the overlap
        # projection of the lattice generator (Phi 0.4), which sums its
        # pushes in pair order, give the same bytes
        digests = []
        for no_ckernel in (False, True):
            set_kernel_mode(no_ckernel)
            digests.append(make_suspension(n, phi, seed=11).positions.tobytes())
        assert digests[0] == digests[1]


#: SHA-256 of the positions of (generator, n, Phi, seed), recorded while
#: every attempt of random sequential addition still ran one pair search
#: over the accepted set and its candidates together.  The kept cell grid
#: answers the same question with the same arithmetic, so no byte moves:
#: (8, 0.2, 0) has two cells per edge, where the stencil wraps onto itself;
#: (600, 0.3, 1) draws many tail attempts near the jamming limit.
RSA_DIGESTS = [
    (make_suspension, 100, 0.2, 0,
     "e9743ba3a7f1c227141d7daa6e416b66fb283485d1501e596da46a8db3617e88"),
    (make_suspension, 1000, 0.2, 0,
     "9ddc407589ccd13a566ead5489c51d84cdd0e088cbaf7bac9e7e094c387ef3a7"),
    (make_suspension, 2000, 0.2, 7,
     "56a422273c5a55671905dfaa0487c06daf1ed5ec404558df115c9cdc15da3a9e"),
    (make_suspension, 30, 0.1, 5,
     "911350f4c5df0ef5c1422b2029e483ba861e411fa98e534b9aa4313621ab5fc6"),
    (random_suspension, 600, 0.3, 1,
     "27c4cce8f87adaeae0320076304306ec00a2c6a224b1f224a40c359b6277cdf8"),
    (make_suspension, 8, 0.2, 0,
     "f0ad3adf55cc4206e89b2fc4df465eda3b9d1c7fd32b766d552e6b8f869ab403"),
]


class TestRSABytes:
    @pytest.mark.parametrize(
        "generator,n,phi,seed,digest", RSA_DIGESTS,
        ids=[f"{g.__name__}-{n}-{phi}-{seed}" for g, n, phi, seed, _ in
             RSA_DIGESTS])
    def test_pinned_digest(self, generator, n, phi, seed, digest,
                           kernel_mode):
        positions = generator(n, phi, seed=seed).positions
        assert hashlib.sha256(positions.tobytes()).hexdigest() == digest

    def test_jammed_rsa_falls_back_to_the_lattice(self):
        # RSA jams placing the last of 1000 particles at Phi 0.3 with
        # seed 1; make_suspension returns the lattice of the same arguments
        susp = make_suspension(1000, 0.3, seed=1)
        assert susp.positions.tobytes() \
            == lattice_suspension(1000, 0.3, seed=1).positions.tobytes()
        assert susp.min_separation() >= 2.0 - 1e-9

    def test_grid_rejects_malformed_rows(self):
        grid = rsa_grid(4, 10.0, 2.0)
        if grid is None:
            pytest.skip("compiled kernels unavailable")
        for rows in (np.zeros((5, 3)), np.zeros((2, 2)), np.zeros(3),
                     np.zeros(())):
            with pytest.raises(ConfigurationError):
                grid.add(rows)
        with pytest.raises(ConfigurationError):
            grid.clear_of(np.zeros(3))
        grid.add(np.zeros((4, 3)))
        with pytest.raises(ConfigurationError):
            grid.add(np.zeros((1, 3)))
        assert not grid.clear_of(np.full((1, 3), 1.0)).any()


class TestPolymer:
    def test_chain_connectivity(self):
        box = Box(60.0)
        susp, bonds = bead_spring_chain(20, 2.5, box, seed=0)
        assert susp.n == 20
        assert bonds.shape == (19, 2)
        # consecutive beads at the bond length
        for a, b in bonds:
            dr = box.minimum_image(susp.positions[a] - susp.positions[b])
            assert np.linalg.norm(dr) == pytest.approx(2.5, rel=1e-9)

    def test_self_avoiding(self):
        box = Box(60.0)
        susp, _ = bead_spring_chain(30, 2.2, box, seed=1)
        assert susp.min_separation() >= 2.0

    def test_rejects_overlapping_bond_length(self):
        with pytest.raises(ConfigurationError):
            bead_spring_chain(5, 1.5, Box(50.0))

    def test_rejects_short_chain(self):
        with pytest.raises(ConfigurationError):
            bead_spring_chain(1, 2.5, Box(50.0))
