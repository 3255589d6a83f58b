"""Tests for the validation helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.validation import (
    as_force_block,
    as_positions,
    check_square_box,
    require,
)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError):
            require(False, "nope")

    def test_as_positions_happy(self):
        r = as_positions([[1, 2, 3], [4, 5, 6]])
        assert r.dtype == np.float64
        assert r.flags["C_CONTIGUOUS"]

    def test_as_positions_shape(self):
        with pytest.raises(ConfigurationError):
            as_positions(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            as_positions(np.zeros(3))

    def test_as_positions_count(self):
        with pytest.raises(ConfigurationError):
            as_positions(np.zeros((3, 3)), n=4)

    def test_as_positions_finite(self):
        with pytest.raises(ConfigurationError):
            as_positions(np.array([[np.nan, 0, 0]]))

    def test_as_force_block_flat(self):
        f, flat = as_force_block(np.ones(6), n=2)
        assert flat
        assert f.shape == (6, 1)

    def test_as_force_block_matrix(self):
        f, flat = as_force_block(np.ones((6, 4)), n=2)
        assert not flat
        assert f.shape == (6, 4)

    def test_as_force_block_wrong_rows(self):
        with pytest.raises(ConfigurationError):
            as_force_block(np.ones(5), n=2)

    def test_check_square_box(self):
        assert check_square_box(2.5) == 2.5
        with pytest.raises(ConfigurationError):
            check_square_box(-1.0)
        with pytest.raises(ConfigurationError):
            check_square_box(float("inf"))
