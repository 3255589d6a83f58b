"""Small shared utilities: periodic boundary helpers, timers, validation."""

from .pbc import minimum_image, wrap_positions, fractional_coordinates
from .params import keyword_only
from .timing import Timer, PhaseTimer
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
    "keyword_only",
    "Timer",
    "PhaseTimer",
    "as_positions",
    "as_force_block",
    "check_square_box",
    "require",
]
