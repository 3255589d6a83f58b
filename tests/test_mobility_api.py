"""Tests for the unified MobilityOperator API and the batched pipeline.

Covers the protocol conformance of every implementer, the equivalence
of ``apply_block`` and per-column ``apply``, the deprecation shims
(``operator(f)`` and positional config construction), the ``replace``
helpers, the :class:`~repro.pme.cache.MobilityCache` reuse and the
block-Lanczos regression (batched operator vs legacy callable).
"""

import warnings

import numpy as np
import pytest

from repro import Box, PMEOperator, PMEParams
from repro.core.brownian import KrylovBrownianGenerator
from repro.core.mobility import (
    CallableMobility,
    DenseMobilityMatrix,
    MobilityOperator,
    as_mobility,
)
from repro.krylov.block_lanczos import block_lanczos_sqrt
from repro.obs import trace as _trace
from repro.pme.cache import MobilityCache
from repro.resilience.recovery import materialize_operator
from repro.rpy.ewald import EwaldSummation


@pytest.fixture(scope="module")
def system():
    n = 20
    box = Box.for_volume_fraction(n, 0.2)
    rng = np.random.default_rng(7)
    r = rng.uniform(0, box.length, size=(n, 3))
    params = PMEParams(xi=1.0, r_max=3.0, K=24, p=4)
    return box, r, params


@pytest.fixture(scope="module")
def spd_matrix():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30))
    return a @ a.T + 30.0 * np.eye(30)


# ---------------------------------------------------------------------------
# protocol conformance
# ---------------------------------------------------------------------------

def test_pme_operator_conforms(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    assert isinstance(op, MobilityOperator)
    assert op.shape == (3 * r.shape[0],) * 2


def test_real_space_operator_conforms(system):
    # the real half of the split is sampled on its own by block Lanczos
    box, r, params = system
    op = PMEOperator(r, box, params).real
    assert isinstance(op, MobilityOperator)
    assert op.shape == (3 * r.shape[0],) * 2
    f = np.random.default_rng(4).standard_normal((3 * r.shape[0], 2))
    assert (op.as_linear_operator() @ f).tobytes() == op.apply(f).tobytes()


def test_dense_matrix_wrapper_conforms(spd_matrix):
    op = DenseMobilityMatrix(spd_matrix)
    assert isinstance(op, MobilityOperator)
    assert op.shape == spd_matrix.shape


def test_callable_wrapper_conforms(spd_matrix):
    op = CallableMobility(lambda v: spd_matrix @ v, dim=30)
    assert isinstance(op, MobilityOperator)
    assert op.shape == (30, 30)


def test_ewald_as_operator_conforms(system):
    box, r, _ = system
    op = EwaldSummation(box=box, tol=1e-8).as_operator(r)
    assert isinstance(op, DenseMobilityMatrix)
    assert isinstance(op, MobilityOperator)
    f = np.ones(3 * r.shape[0])
    np.testing.assert_allclose(op.apply(f), op.matrix @ f)


def test_non_operators_do_not_conform():
    assert not isinstance(object(), MobilityOperator)
    assert not isinstance(np.eye(3), MobilityOperator)


# ---------------------------------------------------------------------------
# as_mobility normalization
# ---------------------------------------------------------------------------

def test_as_mobility_passthrough(spd_matrix):
    op = DenseMobilityMatrix(spd_matrix)
    assert as_mobility(op) is op


def test_as_mobility_wraps_matrix_and_callable(spd_matrix):
    assert isinstance(as_mobility(spd_matrix), DenseMobilityMatrix)
    wrapped = as_mobility(lambda v: spd_matrix @ v, dim=30)
    assert isinstance(wrapped, CallableMobility)
    x = np.arange(30.0)
    np.testing.assert_allclose(wrapped.apply(x), spd_matrix @ x)


def test_as_mobility_rejects_garbage():
    with pytest.raises(TypeError):
        as_mobility(42)


def test_callable_block_falls_back_to_columns(spd_matrix):
    def vector_only(v):
        if np.asarray(v).ndim != 1:
            raise ValueError("vectors only")
        return spd_matrix @ v

    op = CallableMobility(vector_only, dim=30)
    f = np.random.default_rng(3).standard_normal((30, 4))
    np.testing.assert_allclose(op.apply_block(f), spd_matrix @ f,
                               rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# batched apply_block vs sequential apply
# ---------------------------------------------------------------------------

def test_apply_block_matches_per_column_apply(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3 * r.shape[0], 8))
    block = op.apply_block(f)
    for c in range(f.shape[1]):
        ref = op.apply(f[:, c])
        err = (np.linalg.norm(block[:, c] - ref)
               / np.linalg.norm(ref))
        assert err <= 1e-13


def test_apply_block_flat_vector_and_fortran_input(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    rng = np.random.default_rng(1)
    flat = rng.standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(op.apply_block(flat), op.apply(flat),
                               rtol=1e-12, atol=1e-14)
    f = np.asfortranarray(rng.standard_normal((3 * r.shape[0], 3)))
    np.testing.assert_allclose(op.apply_block(f),
                               op.apply_block(np.ascontiguousarray(f)))


def test_linear_operator_routes_matmat_through_block(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    lo = op.as_linear_operator()
    rng = np.random.default_rng(2)
    f = rng.standard_normal((3 * r.shape[0], 4))
    np.testing.assert_allclose(lo @ f, op.apply_block(f),
                               rtol=1e-12, atol=1e-14)


def test_apply_block_spans_carry_vector_counts(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    tracer = _trace.Tracer()
    previous = _trace.set_tracer(tracer)
    try:
        f = np.random.default_rng(4).standard_normal((3 * r.shape[0], 6))
        op.apply_block(f)
    finally:
        _trace.set_tracer(previous)
    vectors = [e.args.get("vectors") for e in tracer.events
               if e.name == "pme.fft" and e.phase == "X"]
    assert vectors == [6]


# ---------------------------------------------------------------------------
# deprecation shims
# ---------------------------------------------------------------------------

def test_direct_call_raises_on_pme_operator(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    f = np.ones(3 * r.shape[0])
    with pytest.raises(TypeError):
        op(f)


def test_direct_call_raises_on_dense_wrapper(spd_matrix):
    op = DenseMobilityMatrix(spd_matrix)
    with pytest.raises(TypeError):
        op(np.ones(30))


def test_callable_wrapper_call_still_works(spd_matrix):
    op = CallableMobility(lambda v: spd_matrix @ v, dim=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op(np.ones(30))


def test_positional_params_raise():
    with pytest.raises(TypeError, match="keyword arguments"):
        PMEParams(1.0, 4.0, 24)
    PMEParams(xi=1.0, r_max=4.0, K=24)    # keyword form: fine


def test_positional_generator_raises():
    with pytest.raises(TypeError, match="KrylovBrownianGenerator"):
        KrylovBrownianGenerator(1.0, 1e-3)
    KrylovBrownianGenerator(kT=1.0, dt=1e-3)


def test_replace_on_frozen_dataclass_params():
    params = PMEParams(xi=1.0, r_max=4.0, K=24, p=4)
    finer = params.replace(K=32)
    assert finer.K == 32 and finer.xi == params.xi
    assert params.K == 24


def test_replace_on_plain_generator_config():
    gen = KrylovBrownianGenerator(kT=2.0, dt=1e-3, tol=1e-2)
    tighter = gen.replace(tol=1e-6)
    assert tighter.tol == 1e-6
    assert tighter.scale == gen.scale
    assert gen.tol == 1e-2


# ---------------------------------------------------------------------------
# mobility-reuse cache
# ---------------------------------------------------------------------------

def test_cache_reuses_position_independent_state(system):
    box, r, params = system
    cache = MobilityCache()
    op1 = PMEOperator(r, box, params, cache=cache)
    assert cache.hits == 0 and cache.misses >= 2
    rng = np.random.default_rng(5)
    r2 = rng.uniform(0, box.length, size=r.shape)
    op2 = PMEOperator(r2, box, params, cache=cache)
    assert cache.hits >= 2          # mesh + influence answered from cache
    assert op2.influence is op1.influence
    assert op2.mesh is op1.mesh


def test_cache_workspaces_shared_across_rebuilds(system):
    box, r, params = system
    cache = MobilityCache()
    op = PMEOperator(r, box, params, cache=cache)
    f = np.random.default_rng(6).standard_normal((3 * r.shape[0], 4))
    op.apply_block(f)
    misses_after_first = cache.misses
    op.apply_block(f)
    op2 = PMEOperator(r, box, params, cache=cache)
    op2.apply_block(f)
    assert cache.misses == misses_after_first
    stats = cache.stats()
    assert stats["workspaces"] == 1
    assert stats["memory_bytes"] > 0


def test_cache_holds_one_arena_as_wide_as_the_widest_pass(system):
    # the block width decides how much of the arena a pass touches,
    # not how many workspace sets are held
    box, r, params = system
    rng = np.random.default_rng(8)
    widest = PMEOperator(r, box, params)
    widest.apply_block(rng.standard_normal((3 * r.shape[0], 40)))
    op = PMEOperator(r, box, params)
    for s in range(1, 41):
        op.apply_block(rng.standard_normal((3 * r.shape[0], s)))
    stats = op.cache.stats()
    assert stats["workspaces"] == 1
    assert stats["memory_bytes"] == widest.cache.memory_bytes()
    # 1-wide after all that: leading lanes of the same arena, no miss
    misses = op.cache.misses
    ws = op.cache.workspace(params.K, 3, r.shape[0])
    assert op.cache.misses == misses
    assert all(a.shape[0] == 3 and a.flags.c_contiguous for a in ws.values())


# ---------------------------------------------------------------------------
# solvers consume the protocol
# ---------------------------------------------------------------------------

def test_block_lanczos_matches_legacy_callable(spd_matrix):
    rng = np.random.default_rng(8)
    z = rng.standard_normal((30, 4))
    y_op, info_op = block_lanczos_sqrt(DenseMobilityMatrix(spd_matrix), z,
                                       tol=1e-10)
    y_cb, info_cb = block_lanczos_sqrt(lambda v: spd_matrix @ v, z,
                                       tol=1e-10)
    # the callable accepts blocks, so both paths run identical arithmetic
    np.testing.assert_array_equal(y_op, y_cb)
    assert info_op.iterations == info_cb.iterations
    assert info_op.n_matvecs == info_cb.n_matvecs


def test_block_lanczos_on_batched_pme_operator(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3 * r.shape[0], 4))
    y_batched, _ = block_lanczos_sqrt(op, z, tol=1e-8)
    y_legacy, _ = block_lanczos_sqrt(op.apply, z, tol=1e-8)
    np.testing.assert_allclose(y_batched, y_legacy, rtol=1e-9, atol=1e-11)


def test_materialize_operator_accepts_all_forms(spd_matrix):
    dense = materialize_operator(spd_matrix, 30)
    np.testing.assert_allclose(dense, spd_matrix)
    via_callable = materialize_operator(lambda v: spd_matrix @ v, 30)
    np.testing.assert_allclose(via_callable, spd_matrix)
    via_operator = materialize_operator(DenseMobilityMatrix(spd_matrix), 30)
    np.testing.assert_allclose(via_operator, spd_matrix)
