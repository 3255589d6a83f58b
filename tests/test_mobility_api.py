"""Tests for the one mobility interface and the batched pipeline.

Covers the two forms every solver takes (an operator with
``apply_block``, or a 2-D matrix) and the rejection of anything else,
the equivalence of ``apply_block`` and per-column ``apply``, the
removed call forms (``operator(f)`` and positional config
construction), the :class:`~repro.pme.cache.MobilityCache` reuse and
block Lanczos on both forms.
"""

import numpy as np
import pytest

from repro import Box, PMEOperator, PMEParams
from repro.core.brownian import KrylovBrownianGenerator
from repro.krylov.block_lanczos import block_lanczos_sqrt, mobility_product
from repro.obs import trace as _trace
from repro.pme.cache import MobilityCache
from repro.resilience import RecoveryLog
from repro.resilience.recovery import (
    krylov_displacements_resilient,
    materialize_operator,
)

#: The message of the rejection names both accepted forms.
BOTH_FORMS = "apply_block or a 2-D ndarray"


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
# the two forms
# ---------------------------------------------------------------------------

def test_pme_operator_conforms(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    assert op.shape == (3 * r.shape[0],) * 2
    f = np.random.default_rng(3).standard_normal((3 * r.shape[0], 2))
    assert mobility_product(op)(f).tobytes() == op.apply_block(f).tobytes()


def test_real_space_operator_conforms(system):
    # the real half of the split is sampled on its own by block Lanczos
    box, r, params = system
    op = PMEOperator(r, box, params).real
    assert op.shape == (3 * r.shape[0],) * 2
    f = np.random.default_rng(4).standard_normal((3 * r.shape[0], 2))
    assert mobility_product(op)(f).tobytes() == op.apply(f).tobytes()


def test_non_operators_do_not_conform(spd_matrix):
    for other in (object(), np.ones(30), lambda v: spd_matrix @ v):
        with pytest.raises(TypeError, match=BOTH_FORMS):
            mobility_product(other)


def test_solvers_reject_a_bare_callable(spd_matrix):
    def matvec(v):
        return spd_matrix @ v

    z = np.random.default_rng(12).standard_normal((30, 2))
    generator = KrylovBrownianGenerator(kT=1.0, dt=1e-3)
    calls = [
        lambda: block_lanczos_sqrt(matvec, z),
        lambda: generator.generate(matvec, z),
        lambda: materialize_operator(matvec, 30),
        lambda: krylov_displacements_resilient(generator, matvec, z,
                                               RecoveryLog(), 0),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=BOTH_FORMS):
            call()


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
# removed call forms
# ---------------------------------------------------------------------------

def test_direct_call_raises_on_pme_operator(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    f = np.ones(3 * r.shape[0])
    with pytest.raises(TypeError):
        op(f)


def test_positional_params_raise():
    with pytest.raises(TypeError, match="positional argument"):
        PMEParams(1.0, 4.0, 24)
    PMEParams(xi=1.0, r_max=4.0, K=24)    # keyword form: fine


def test_positional_generator_raises():
    with pytest.raises(TypeError, match="KrylovBrownianGenerator"):
        KrylovBrownianGenerator(1.0, 1e-3)
    KrylovBrownianGenerator(kT=1.0, dt=1e-3)


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
# solvers on both forms
# ---------------------------------------------------------------------------

class _MatrixOperator:
    """A matrix behind ``apply_block``: the operator form of the array."""

    def __init__(self, matrix):
        self.matrix = matrix

    def apply_block(self, forces):
        return self.matrix @ forces


def test_block_lanczos_same_bytes_for_matrix_and_operator(spd_matrix):
    rng = np.random.default_rng(8)
    z = rng.standard_normal((30, 4))
    y_op, info_op = block_lanczos_sqrt(_MatrixOperator(spd_matrix), z,
                                       tol=1e-10)
    y_mat, info_mat = block_lanczos_sqrt(spd_matrix, z, tol=1e-10)
    # both forms make the same product: identical arithmetic
    assert y_op.tobytes() == y_mat.tobytes()
    assert info_op.iterations == info_mat.iterations
    assert info_op.n_matvecs == info_mat.n_matvecs


def test_block_lanczos_on_batched_pme_operator(system):
    box, r, params = system
    op = PMEOperator(r, box, params)
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3 * r.shape[0], 4))
    y_batched, _ = block_lanczos_sqrt(op, z, tol=1e-8)
    y_dense, _ = block_lanczos_sqrt(op.to_dense(), z, tol=1e-8)
    np.testing.assert_allclose(y_batched, y_dense, rtol=1e-9, atol=1e-11)


def test_materialize_operator_accepts_all_forms(system, spd_matrix):
    # the two forms: an array comes back as a copy of itself, an
    # operator is applied column by column
    dense = materialize_operator(spd_matrix, 30)
    assert dense.tobytes() == spd_matrix.tobytes()
    assert dense is not spd_matrix
    box, r, params = system
    op = PMEOperator(r, box, params)
    np.testing.assert_allclose(materialize_operator(op, 3 * r.shape[0]),
                               op.to_dense(), rtol=1e-12, atol=1e-14)
