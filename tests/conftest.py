"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Box, FluidParams, REDUCED
from repro.sparse.kernels import reset_kernel_cache
from repro.systems import random_suspension


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(20140519)  # IPDPS 2014 conference date


@pytest.fixture
def small_box():
    """A 20x20x20 periodic box."""
    return Box(20.0)


@pytest.fixture
def small_suspension():
    """A 40-particle suspension at Phi = 0.2 (deterministic)."""
    return random_suspension(40, 0.2, seed=7)


@pytest.fixture
def medium_suspension():
    """A 120-particle suspension at Phi = 0.2 (deterministic)."""
    return random_suspension(120, 0.2, seed=3)


@pytest.fixture
def fluid():
    """The reduced-unit fluid parameters."""
    return REDUCED


@pytest.fixture
def set_kernel_mode(monkeypatch):
    """``set_kernel_mode(no_ckernel)`` switches the rest of the test to the
    compiled kernels or to the ``REPRO_NO_CKERNEL`` fallbacks."""
    def switch(no_ckernel: bool) -> None:
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1" if no_ckernel else "0")
        reset_kernel_cache()
    yield switch
    reset_kernel_cache()


@pytest.fixture(params=[False, True], ids=["ckernel", "fallback"])
def kernel_mode(request, set_kernel_mode):
    """Run the test in both kernel modes."""
    set_kernel_mode(request.param)
    return request.param
