"""Small shared utilities: periodic boundary helpers and validation."""

from .pbc import minimum_image, wrap_positions, fractional_coordinates
from .validation import (
    as_positions,
    as_force_block,
    check_square_box,
    require,
)

__all__ = [
    "minimum_image",
    "wrap_positions",
    "fractional_coordinates",
    "as_positions",
    "as_force_block",
    "check_square_box",
    "require",
]
