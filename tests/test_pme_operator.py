"""Tests for the composed PME mobility operator — accuracy vs dense Ewald."""

import numpy as np
import pytest

from repro import Box, FluidParams, PMEOperator, PMEParams
from repro.errors import ConfigurationError
from repro.rpy.ewald import EwaldSummation


@pytest.fixture(scope="module")
def system():
    box = Box.for_volume_fraction(45, 0.2)
    rng = np.random.default_rng(12)
    r = rng.uniform(0, box.length, size=(45, 3))
    reference = EwaldSummation(box=box, tol=1e-12).matrix(r)
    return box, r, reference


PARAMS = PMEParams(xi=1.0, r_max=4.0, K=48, p=6)


def test_accuracy_against_dense_ewald(system):
    box, r, ref = system
    op = PMEOperator(r, box, PARAMS)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(3 * r.shape[0])
    u = op.apply(f)
    err = np.linalg.norm(u - ref @ f) / np.linalg.norm(ref @ f)
    assert err < 2e-3


def test_higher_resolution_is_more_accurate(system):
    box, r, ref = system
    rng = np.random.default_rng(1)
    f = rng.standard_normal(3 * r.shape[0])
    errs = []
    for K, p in ((32, 4), (48, 6), (64, 8)):
        op = PMEOperator(r, box, PMEParams(xi=1.0, r_max=4.0, K=K, p=p))
        u = op.apply(f)
        errs.append(np.linalg.norm(u - ref @ f) / np.linalg.norm(ref @ f))
    assert errs[2] < errs[1] < errs[0]


def test_operator_is_symmetric(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3 * r.shape[0])
    y = rng.standard_normal(3 * r.shape[0])
    assert np.dot(y, op.apply(x)) == pytest.approx(np.dot(x, op.apply(y)),
                                                   rel=1e-8)


def test_block_matches_column_loop(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3 * r.shape[0], 5))
    block = op.apply(f)
    for c in range(5):
        np.testing.assert_allclose(block[:, c], op.apply(f[:, c]),
                                   rtol=1e-10, atol=1e-12)


def test_store_p_false_matches(system):
    box, r, _ = system
    rng = np.random.default_rng(4)
    f = rng.standard_normal(3 * r.shape[0])
    u_stored = PMEOperator(r, box, PARAMS, store_p=True).apply(f)
    u_fly = PMEOperator(r, box, PARAMS, store_p=False).apply(f)
    np.testing.assert_allclose(u_fly, u_stored, rtol=1e-10, atol=1e-13)


def test_linearity(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3 * r.shape[0])
    y = rng.standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(op.apply(2.0 * x - 0.5 * y),
                               2.0 * op.apply(x) - 0.5 * op.apply(y),
                               rtol=1e-10, atol=1e-12)


def test_real_plus_reciprocal_composition(system):
    # the two public halves are the halves apply_block sums: bitwise
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS, fluid=FluidParams(viscosity=3.0))
    rng = np.random.default_rng(6)
    for f in (rng.standard_normal(3 * r.shape[0]),
              rng.standard_normal((3 * r.shape[0], 3))):
        parts = ((op.apply_real(f) + op.apply_reciprocal(f))
                 * op.fluid.mobility0)
        assert parts.shape == f.shape
        assert parts.tobytes() == op.apply_block(f).tobytes()


def test_apply_is_apply_block(system):
    # one pipeline: a flat vector is a one-column block and comes back
    # flat; columns are counted once
    box, r, _ = system
    assert PMEOperator.apply is PMEOperator.apply_block
    op = PMEOperator(r, box, PARAMS)
    f = np.random.default_rng(9).standard_normal((3 * r.shape[0], 3))
    flat = op.apply_block(f[:, 0])
    assert flat.shape == (3 * r.shape[0],)
    assert flat.tobytes() == op.apply(f[:, :1])[:, 0].tobytes()
    assert op.n_applications == 2
    op.apply(f)
    assert op.n_applications == 5


def test_wide_block_is_chunked(system):
    # wider than MAX_BLOCK_COLUMNS: same numbers as column by column,
    # and no workspace wider than the constant is ever allocated
    from repro.pme.operator import MAX_BLOCK_COLUMNS

    box, r, _ = system
    op = PMEOperator(r, box, PMEParams(xi=1.0, r_max=4.0, K=16, p=4))
    width = 2 * MAX_BLOCK_COLUMNS + 5
    f = np.random.default_rng(10).standard_normal((3 * r.shape[0], width))
    wide = op.apply_block(f)
    columns = np.column_stack([op.apply(f[:, c]) for c in range(width)])
    assert np.abs(wide - columns).max() <= 1e-13
    assert op.n_applications == 2 * width
    lanes = [ws["mesh"].shape[0] for ws in op.cache._workspaces.values()]
    assert max(lanes) == 3 * MAX_BLOCK_COLUMNS


def test_linear_operator_adapter(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    lo = op.as_linear_operator()
    rng = np.random.default_rng(7)
    f = rng.standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(lo @ f, op.apply(f), rtol=1e-12)


def test_physical_units(system):
    box, r, ref = system
    fluid = FluidParams(viscosity=3.0)
    op = PMEOperator(r, box, PARAMS, fluid=fluid)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(op.apply(f),
                               PMEOperator(r, box, PARAMS).apply(f)
                               * fluid.mobility0, rtol=1e-12)


def test_phase_timers_populated(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    op.apply(np.ones(3 * r.shape[0]))
    breakdown = op.phase_breakdown()
    for phase in ("spread", "fft", "influence", "ifft", "interpolate", "real"):
        assert breakdown.get(phase, 0.0) > 0.0


def test_application_counter(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    op.apply(np.ones(3 * r.shape[0]))
    op.apply(np.ones((3 * r.shape[0], 4)))
    assert op.n_applications == 5


def test_memory_report(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    report = op.memory_report()
    assert report["total"] == sum(v for k, v in report.items()
                                  if k != "total")
    assert report["influence_function"] == op.influence.memory_bytes
    # O(n) + O(K^3) scaling: far below the dense 9 n^2 * 8 bytes already
    # for this small system? not necessarily — just check positivity
    assert report["total"] > 0


def test_wrong_force_shape_rejected(system):
    box, r, _ = system
    op = PMEOperator(r, box, PARAMS)
    with pytest.raises(ConfigurationError):
        op.apply(np.ones(7))


def test_params_validation():
    with pytest.raises(ConfigurationError):
        PMEParams(xi=0.0, r_max=4.0, K=32)
    with pytest.raises(ConfigurationError):
        PMEParams(xi=1.0, r_max=-1.0, K=32)
    with pytest.raises(ConfigurationError):
        PMEParams(xi=1.0, r_max=4.0, K=4, p=6)


def test_single_particle_self_mobility():
    # PME of an isolated particle reproduces the periodic self-mobility
    box = Box(20.0)
    r = np.array([[10.0, 10.0, 10.0]])
    op = PMEOperator(r, box, PMEParams(xi=1.0, r_max=5.0, K=64, p=6))
    u = op.apply(np.array([1.0, 0.0, 0.0]))
    ref = EwaldSummation(box=box, tol=1e-12).matrix(r)
    assert u[0] == pytest.approx(ref[0, 0], rel=1e-4)
    assert abs(u[1]) < 1e-6
    assert abs(u[2]) < 1e-6
