"""Tests of the runtime-contract layer under REPRO_CHECKS=0/1/strict."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lint import contracts
from repro.lint.contracts import (
    BASIC,
    OFF,
    STRICT,
    array_arg,
    check_level,
    force_block_arg,
    positions_arg,
    returns_spd,
    spd_arg,
    trajectory_arg,
)
from repro.utils.validation import as_force_block


@pytest.fixture
def checks(monkeypatch):
    """Set REPRO_CHECKS for the duration of one test."""
    def _set(value: str) -> None:
        monkeypatch.setenv("REPRO_CHECKS", value)
    return _set


# ----------------------------------------------------------------------
# level parsing
# ----------------------------------------------------------------------

def test_check_level_default_is_basic(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKS", raising=False)
    assert check_level() == BASIC


@pytest.mark.parametrize("value,level", [
    ("0", OFF), ("off", OFF), ("false", OFF), ("none", OFF),
    ("1", BASIC), ("on", BASIC), ("basic", BASIC),
    ("2", STRICT), ("strict", STRICT), ("STRICT", STRICT), ("full", STRICT),
])
def test_check_level_parsing(checks, value, level):
    checks(value)
    assert check_level() == level


def test_check_level_rejects_unknown_value(checks):
    checks("sometimes")
    with pytest.raises(ConfigurationError):
        check_level()


# ----------------------------------------------------------------------
# positions_arg
# ----------------------------------------------------------------------

@positions_arg()
def _centroid(positions):
    return np.asarray(positions).mean(axis=0)


def test_positions_arg_normalizes_lists(checks):
    checks("1")
    out = _centroid([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
    np.testing.assert_allclose(out, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("value", ["1", "strict"])
def test_positions_arg_rejects_n_by_2(checks, value):
    checks(value)
    with pytest.raises(ConfigurationError):
        _centroid(np.zeros((4, 2)))


def test_positions_arg_off_passes_malformed_through(checks):
    checks("0")
    out = _centroid(np.zeros((4, 2)))
    assert out.shape == (2,)


def test_positions_arg_nan_only_caught_at_strict(checks):
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    checks("1")
    assert np.isnan(_centroid(bad)).any()
    checks("strict")
    with pytest.raises(ConfigurationError):
        _centroid(bad)


def test_positions_arg_resolves_positional_and_keyword(checks):
    checks("1")

    @positions_arg()
    def shifted(offset, positions):
        return positions + offset

    r = np.zeros((2, 3))
    np.testing.assert_allclose(shifted(1.0, r), np.ones((2, 3)))
    np.testing.assert_allclose(shifted(1.0, positions=r), np.ones((2, 3)))
    with pytest.raises(ConfigurationError):
        shifted(1.0, np.zeros(5))


def test_contract_decorator_rejects_missing_param():
    with pytest.raises(ConfigurationError):
        @positions_arg("coords")
        def f(positions):
            return positions


# ----------------------------------------------------------------------
# force_block_arg
# ----------------------------------------------------------------------

@force_block_arg()
def _norm(forces):
    return float(np.linalg.norm(forces))


def test_force_block_accepts_flat_and_blocked(checks):
    checks("1")
    assert _norm(np.ones(6)) > 0
    assert _norm(np.ones((6, 4))) > 0


@pytest.mark.parametrize("bad", [
    np.ones(7),            # not a multiple of 3
    np.ones((6, 0)),       # s == 0
    np.ones((2, 2, 2)),    # wrong rank
])
def test_force_block_rejects_malformed(checks, bad):
    checks("1")
    with pytest.raises(ConfigurationError):
        _norm(bad)


def test_force_block_finite_scan_strict_only(checks):
    bad = np.full(6, np.inf)
    checks("1")
    assert _norm(bad) == np.inf
    checks("strict")
    with pytest.raises(ConfigurationError):
        _norm(bad)


# ----------------------------------------------------------------------
# as_force_block hardening (s == 0)
# ----------------------------------------------------------------------

def test_as_force_block_rejects_zero_vectors():
    with pytest.raises(ValueError, match="s == 0"):
        as_force_block(np.ones((6, 0)), 2)


def test_as_force_block_optional_finite_scan():
    bad = np.full(6, np.nan)
    as_force_block(bad, 2)  # default: no scan
    with pytest.raises(ValueError):
        as_force_block(bad, 2, check_finite=True)


# ----------------------------------------------------------------------
# trajectory_arg / array_arg
# ----------------------------------------------------------------------

def test_trajectory_arg(checks):
    checks("1")

    @trajectory_arg("trajectory")
    def n_frames(trajectory):
        return trajectory.shape[0]

    assert n_frames(np.zeros((5, 4, 3))) == 5
    with pytest.raises(ConfigurationError):
        n_frames(np.zeros((5, 4)))


def test_array_arg_rank_check(checks):
    checks("1")

    @array_arg("z", ndim=(1,))
    def first(z):
        return z[0]

    assert first(np.arange(3.0)) == 0.0
    with pytest.raises(ConfigurationError):
        first(np.zeros((3, 2)))


# ----------------------------------------------------------------------
# SPD contracts
# ----------------------------------------------------------------------

def _spd(n=4):
    a = np.diag(np.arange(1.0, n + 1.0))
    a[0, 1] = a[1, 0] = 0.1
    return a


def _not_spd(n=4):
    m = np.eye(n)
    m[0, 0] = -1.0
    return m


def test_spd_arg_strict_rejects_indefinite(checks):
    @spd_arg("mobility")
    def trace(mobility):
        return float(np.trace(mobility))

    checks("1")
    trace(_not_spd())  # spd check is strict-only
    checks("strict")
    assert trace(_spd()) > 0
    with pytest.raises(ConfigurationError, match="positive definite"):
        trace(_not_spd())


def test_spd_arg_strict_rejects_asymmetric(checks):
    @spd_arg("mobility")
    def trace(mobility):
        return float(np.trace(mobility))

    checks("strict")
    m = _spd()
    m[0, 1] = 5.0
    with pytest.raises(ConfigurationError, match="symmetric"):
        trace(m)


def test_returns_spd_strict_checks_return_value(checks):
    @returns_spd("debug mobility")
    def build(good):
        return _spd() if good else _not_spd()

    checks("1")
    build(False)
    checks("strict")
    build(True)
    with pytest.raises(ConfigurationError, match="debug mobility"):
        build(False)


def test_spd_check_skips_large_matrices(checks):
    checks("strict")

    @returns_spd("big")
    def build(n):
        return _not_spd(n)

    build(contracts.SPD_CHECK_MAX_DIM + 3)  # too large to eig-check


# ----------------------------------------------------------------------
# acceptance criteria on the real entry points
# ----------------------------------------------------------------------

def test_rpy_mobility_rejects_n_by_2_positions(checks):
    from repro.rpy.tensor import mobility_matrix_free

    checks("strict")
    with pytest.raises(ConfigurationError):
        mobility_matrix_free(np.zeros((4, 2)))


def test_cholesky_generator_rejects_non_spd_mobility(checks):
    from repro.core.brownian import CholeskyBrownianGenerator

    checks("strict")
    gen = CholeskyBrownianGenerator(kT=1.0, dt=1e-3)
    with pytest.raises(ConfigurationError):
        gen.generate(_not_spd(6), np.ones(6))


def test_returns_spd_passes_on_real_mobility(checks):
    from repro.rpy.tensor import mobility_matrix_free

    checks("strict")
    rng = np.random.default_rng(3)
    r = rng.uniform(0.0, 10.0, size=(8, 3))
    m = mobility_matrix_free(r)
    assert m.shape == (24, 24)


def test_contracts_introspection_attribute():
    from repro.core.brownian import CholeskyBrownianGenerator
    from repro.krylov.block_lanczos import block_lanczos_sqrt
    from repro.pme.operator import PMEOperator
    from repro.rpy.ewald import EwaldSummation
    from repro.rpy.tensor import mobility_matrix_free
    from repro.sparse.bcsr import BlockCSR

    decorated = [
        PMEOperator.__init__,
        PMEOperator.apply,
        mobility_matrix_free,
        EwaldSummation.matrix,
        EwaldSummation.apply,
        block_lanczos_sqrt,
        BlockCSR.matvec,
        CholeskyBrownianGenerator.generate,
    ]
    for func in decorated:
        names = getattr(func, "__repro_contracts__", ())
        assert names, f"{func.__qualname__} lost its contracts"


def test_off_level_is_pure_passthrough(checks):
    checks("0")
    calls = []

    @positions_arg()
    def probe(positions):
        calls.append(positions)
        return positions

    sentinel = object()
    assert probe(sentinel) is sentinel  # not even np.asarray at OFF
    assert calls == [sentinel]
