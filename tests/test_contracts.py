"""Array contracts of the public entry points, checked in their bodies.

``tests/test_validation.py`` sweeps every entry point; these are the
named cases: normalisation, the shape checks of positions, force
operands, trajectories and Krylov blocks, and the SPD requirement of
the dense Cholesky path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.msd import mean_squared_displacement
from repro.errors import ConfigurationError, NotPositiveDefiniteError
from repro.geometry.box import Box
from repro.krylov.block_lanczos import block_lanczos_sqrt
from repro.sparse.bcsr import BlockCSR
from repro.utils.validation import as_force_block


def _bcsr(n=2):
    """A diagonal ``3n x 3n`` block matrix (identity blocks)."""
    empty = np.empty(0, dtype=np.intp)
    return BlockCSR.from_pairs(n, empty, empty, np.empty((0, 3, 3)),
                               np.tile(np.eye(3), (n, 1, 1)))


# ----------------------------------------------------------------------
# positions
# ----------------------------------------------------------------------

def test_positions_arg_normalizes_lists():
    out = Box(4.0).wrap([[0, 0, 0], [5, 6, 7]])
    assert out.dtype == np.float64 and out.flags.c_contiguous
    np.testing.assert_allclose(out, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])


def test_positions_arg_resolves_positional_and_keyword():
    box = Box(10.0)
    r = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    i, j = np.array([0]), np.array([1])
    _, by_position = box.distances(r, i, j)
    _, by_keyword = box.distances(positions=r, pairs_i=i, pairs_j=j)
    np.testing.assert_array_equal(by_position, by_keyword)
    assert by_position[0] == pytest.approx(3.0)
    with pytest.raises(ConfigurationError):
        box.distances(np.zeros(5), i, j)


# ----------------------------------------------------------------------
# force operands
# ----------------------------------------------------------------------

def test_force_block_accepts_flat_and_blocked():
    a = _bcsr()
    np.testing.assert_array_equal(a.matvec(np.arange(6.0)), np.arange(6.0))
    assert a.matvec(np.ones((6, 4))).shape == (6, 4)


@pytest.mark.parametrize("bad", [
    np.ones(7),            # not a multiple of 3
    np.ones((6, 0)),       # s == 0
    np.ones((2, 2, 2)),    # wrong rank
])
def test_force_block_rejects_malformed(bad):
    with pytest.raises(ConfigurationError):
        _bcsr().matvec(bad)


def test_as_force_block_rejects_zero_vectors():
    with pytest.raises(ValueError, match="s == 0"):
        as_force_block(np.ones((6, 0)), 2)


def test_as_force_block_optional_finite_scan():
    bad = np.full(6, np.nan)
    as_force_block(bad, 2)  # default: no scan
    with pytest.raises(ValueError):
        as_force_block(bad, 2, check_finite=True)


# ----------------------------------------------------------------------
# trajectories and Krylov blocks
# ----------------------------------------------------------------------

def test_trajectory_arg():
    r = np.zeros((5, 4, 3))
    r[:, :, 0] = np.arange(5.0)[:, None]
    assert mean_squared_displacement(r)[1] == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        mean_squared_displacement(np.zeros((5, 4)))
    r[2, 1, 1] = np.nan   # recorded input: scanned unconditionally
    with pytest.raises(ConfigurationError, match="non-finite"):
        mean_squared_displacement(r)


def test_array_arg_rank_check():
    m = np.diag(np.arange(1.0, 7.0))
    y, _ = block_lanczos_sqrt(m, np.ones((6, 1)))
    assert y.shape == (6, 1)
    with pytest.raises(ConfigurationError, match="z must be 2-D"):
        block_lanczos_sqrt(m, np.ones(6))


# ----------------------------------------------------------------------
# the real entry points
# ----------------------------------------------------------------------

def _not_spd(n=6):
    m = np.eye(n)
    m[0, 0] = -1.0
    return m


def test_rpy_mobility_rejects_n_by_2_positions():
    from repro.rpy.tensor import mobility_matrix_free

    with pytest.raises(ConfigurationError):
        mobility_matrix_free(np.zeros((4, 2)))


def test_cholesky_generator_rejects_non_spd_mobility():
    from repro.core.brownian import CholeskyBrownianGenerator

    gen = CholeskyBrownianGenerator(kT=1.0, dt=1e-3)
    with pytest.raises(NotPositiveDefiniteError):
        gen.generate(_not_spd(), np.ones(6))


def test_returns_spd_passes_on_real_mobility():
    from repro.rpy.tensor import mobility_matrix_free

    rng = np.random.default_rng(3)
    r = rng.uniform(0.0, 10.0, size=(8, 3))
    m = mobility_matrix_free(r)
    assert m.shape == (24, 24)
    np.testing.assert_array_equal(m, m.T)
    assert np.linalg.eigvalsh(m).min() > 0
