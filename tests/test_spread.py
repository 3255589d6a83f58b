"""Tests for PME spreading/interpolation and the P matrix."""

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.pme.spread import InterpolationMatrix


@pytest.fixture
def setup():
    box = Box(12.0)
    rng = np.random.default_rng(5)
    r = rng.uniform(0, box.length, size=(25, 3))
    return box, r, rng


def test_p_has_p3_nonzeros_per_row(setup):
    box, r, _ = setup
    p = 4
    interp = InterpolationMatrix(r, box, K=16, p=p)
    counts = np.diff(interp.matrix.indptr)
    assert np.all(counts == p ** 3)


def test_row_sums_are_one(setup):
    # spreading a unit "charge" deposits exactly one unit on the mesh
    box, r, _ = setup
    interp = InterpolationMatrix(r, box, K=16, p=6)
    row_sums = np.asarray(interp.matrix.sum(axis=1)).ravel()
    np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)


def test_spread_conserves_total(setup):
    box, r, rng = setup
    interp = InterpolationMatrix(r, box, K=16, p=6)
    f = rng.standard_normal(r.shape[0])
    mesh = interp.spread(f)
    assert mesh.sum() == pytest.approx(f.sum(), rel=1e-10)


def test_spread_interpolate_adjoint(setup):
    # <P^T f, U> == <f, P U> for all f, U
    box, r, rng = setup
    interp = InterpolationMatrix(r, box, K=12, p=4)
    f = rng.standard_normal(r.shape[0])
    u = rng.standard_normal(12 ** 3)
    assert np.dot(interp.spread(f), u) == pytest.approx(
        np.dot(f, interp.interpolate(u)), rel=1e-10)


def test_interpolation_of_constant_field_is_exact(setup):
    # partition of unity: a constant mesh field interpolates exactly
    box, r, _ = setup
    interp = InterpolationMatrix(r, box, K=16, p=6)
    values = interp.interpolate(np.full(16 ** 3, 2.5))
    np.testing.assert_allclose(values, 2.5, atol=1e-12)


def test_b_corrected_interpolation_reproduces_smooth_field(setup):
    # the smooth-PME identity: deconvolving the mesh field with the
    # Euler spline coefficients b(k) before P-interpolation reproduces
    # a band-limited field at the particles to spline accuracy
    from repro.pme.bspline import euler_spline_coefficients
    box, r, _ = setup
    K, p = 32, 6
    interp = InterpolationMatrix(r, box, K=K, p=p)
    grid = np.arange(K) * (box.length / K)
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    k0 = 2 * np.pi / box.length
    field = np.sin(k0 * x) * np.cos(2 * k0 * y) * np.sin(k0 * z)
    b = euler_spline_coefficients(K, p)
    bz = b[: K // 2 + 1]
    spec = np.fft.rfftn(field) * (b[:, None, None] * b[None, :, None]
                                  * bz[None, None, :])
    corrected = np.fft.irfftn(spec, s=(K, K, K), axes=(0, 1, 2))
    values = interp.interpolate(corrected.ravel())
    exact = (np.sin(k0 * r[:, 0]) * np.cos(2 * k0 * r[:, 1])
             * np.sin(k0 * r[:, 2]))
    np.testing.assert_allclose(values, exact, atol=1e-5)


def test_particle_on_mesh_point():
    # a particle exactly on a mesh point with p=2 deposits its whole
    # weight on a single point.  Note the SPME convention: the weight of
    # mesh point k is M_p(u - k), whose maximum for p=2 sits at
    # u - k = 1, i.e. one mesh unit *below* the particle; the phase
    # factor in b(k) compensates this shift in Fourier space.
    box = Box(8.0)
    r = np.array([[2.0, 4.0, 6.0]])  # mesh coords (4, 8, 12) for K=16
    interp = InterpolationMatrix(r, box, K=16, p=2)
    mesh = interp.spread(np.array([1.0])).reshape(16, 16, 16)
    assert mesh[3, 7, 11] == pytest.approx(1.0)
    assert mesh.sum() == pytest.approx(1.0)


def test_periodic_wraparound_spreading():
    # a particle near the origin spreads onto high-index mesh points
    box = Box(8.0)
    r = np.array([[0.05, 0.05, 0.05]])
    interp = InterpolationMatrix(r, box, K=16, p=4)
    mesh = interp.spread(np.array([1.0])).reshape(16, 16, 16)
    assert mesh[15, 15, 15] > 0  # wrapped contribution
    assert mesh.sum() == pytest.approx(1.0)


def test_multivector_spread(setup):
    box, r, rng = setup
    interp = InterpolationMatrix(r, box, K=12, p=4)
    f = rng.standard_normal((r.shape[0], 5))
    block = interp.spread(f)
    for c in range(5):
        np.testing.assert_allclose(block[:, c], interp.spread(f[:, c]),
                                   atol=1e-12)


def test_spread_batch_any_row_partition_same_bytes(setup, kernel_mode):
    # the gather contract: every row of a range is written (zero rows
    # included) in stored order, so the bytes do not depend on how
    # [0, K^3) is cut — tile-aligned or not, one row or many
    from repro.sparse import kernels

    box, r, rng = setup
    K = 12
    interp = InterpolationMatrix(r, box, K=K, p=4)
    vals = rng.standard_normal((r.shape[0], 5))
    one = interp.spread_batch(vals, out=np.full((5, K ** 3), np.nan))
    assert np.all(np.isfinite(one))              # every row written
    for cuts in ([0, 1, 17, 800, K ** 3], [0, 16, 64, 65, 1000, K ** 3],
                 sorted({0, K ** 3, *rng.integers(0, K ** 3, 9).tolist()})):
        cut = np.full((5, K ** 3), np.nan)
        for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
            kernels.spread_rows(*interp._pt, vals, cut, [(lo, hi)])
        assert cut.tobytes() == one.tobytes()
    np.testing.assert_allclose(one, interp.spread(vals).T, atol=1e-13)


def test_spread_batch_empty_rows_and_particle_on_mesh_point(kernel_mode):
    # one particle exactly on a mesh point next to one that is not, on a
    # mesh most of whose rows are empty; 40 lanes is more than the
    # compiled gather sweeps at once
    box = Box(8.0)
    r = np.array([[2.0, 4.0, 6.0], [2.2, 4.1, 5.7]])
    interp = InterpolationMatrix(r, box, K=16, p=2)
    vals = np.random.default_rng(1).standard_normal((2, 40))
    mesh = interp.spread_batch(vals, out=np.full((40, 16 ** 3), np.nan))
    # (not bytewise: the compiled gather may contract to fused multiply-adds)
    np.testing.assert_allclose(mesh, interp.spread(vals).T, rtol=0,
                               atol=1e-15)
    assert np.count_nonzero(mesh[0]) <= 2 * 2 ** 3
    np.testing.assert_allclose(mesh.sum(axis=1), vals.sum(axis=0),
                               atol=1e-13)


def _p_bytes(interp):
    # what P holds, each buffer once: the CSR's values are the weights
    # (shared), its int32 column indices sit beside the int64 columns
    m = interp.matrix
    n, p3 = interp.n, interp.p ** 3
    assert np.shares_memory(m.data, interp.weights)
    assert not np.shares_memory(m.indices, interp.columns)
    assert interp.weights.nbytes == interp.columns.nbytes == 8 * n * p3
    return (16 + m.indices.itemsize) * n * p3 + m.indptr.itemsize * (n + 1)


def test_memory_accounting(setup):
    # P alone (CSR and gather tables, shared buffers once) until the
    # first wide spread builds P', once: then P plus P' (8-byte values
    # and indices, a K^3 + 1 row pointer); the first wide interpolation
    # adds its visit order (8 n bytes), once
    from repro.sparse import kernels

    box, r, rng = setup
    n = r.shape[0]
    interp = InterpolationMatrix(r, box, K=16, p=4)
    interp.spread_batch(rng.standard_normal((n, 3)))   # a scatter
    assert interp._pt is None
    assert interp.memory_bytes == _p_bytes(interp)
    interp.spread_batch(rng.standard_normal((n, 6)))   # a gather
    rows = interp._pt
    both = _p_bytes(interp) + 2 * 8 * n * 4 ** 3 + 8 * (16 ** 3 + 1)
    assert interp.memory_bytes == both
    interp.spread_batch(rng.standard_normal((n, 9)))
    assert interp._pt is rows
    interp.interpolate_batch(rng.standard_normal((3, 16 ** 3)))   # narrow
    assert interp._order is None
    interp.interpolate_batch(rng.standard_normal((6, 16 ** 3)))   # wide
    order = interp._order
    assert (order is not None) == kernels.kernel_available()
    assert interp.memory_bytes == both + (0 if order is None else 8 * n)
    interp.interpolate_batch(rng.standard_normal((9, 16 ** 3)))
    assert interp._order is order


def _batch_first(interp, mesh):
    """Every lane of ``mesh`` gathered by the batch-first kernel, rows
    in id order: the bytes a wide interpolation is pinned to."""
    from repro.sparse import kernels

    out = np.full((mesh.shape[0], interp.n), np.nan)
    kernels.interp_ranges(interp.weights, interp.columns, mesh, out,
                          [(0, interp.n)])
    return out


def _interleaved_cases(case):
    box = Box(8.0)
    rng = np.random.default_rng(13)
    r = rng.uniform(0, box.length, size=(40, 3))
    K, p = 16, 4
    if case == "on_mesh_point":
        r[7] = [2.0, 4.0, 6.0]                   # mesh coords (4, 8, 12)
    elif case == "k_equals_p":
        K = p = 6                                # the smallest legal mesh
    return InterpolationMatrix(r, box, K=K, p=p), rng


@pytest.mark.parametrize("case", ["random", "on_mesh_point", "k_equals_p"])
def test_wide_interpolation_is_the_batch_first_bytes(case, kernel_mode):
    # widths 1-25 cover every mix of 8-, 4-, 2- and 1-lane passes; a wide
    # block is interleaved (into a caller's scratch or its own) and
    # gathered in the spatial order on 1-3 workers, a narrow one
    # gathered batch-first: every lane is the batch-first kernel's bytes
    from repro.exec import ExecutionContext

    interp, rng = _interleaved_cases(case)
    n, k3 = interp.n, interp.K ** 3
    contexts = [ExecutionContext("serial"),
                ExecutionContext("threads", workers=2),
                ExecutionContext("threads", workers=3)]
    try:
        for lanes in range(1, 26):
            mesh = rng.standard_normal((lanes, k3))
            want = _batch_first(interp, mesh)
            assert np.all(np.isfinite(want))
            for ctx in contexts:
                scratch = (None if ctx.workers == 1
                           else np.full(lanes * k3 + 7, np.nan))
                got = interp.interpolate_batch(
                    mesh, out=np.full((lanes, n), np.nan), context=ctx,
                    scratch=scratch)
                assert got.tobytes() == want.tobytes(), (lanes, ctx.workers)
    finally:
        for ctx in contexts:
            ctx.close()
    assert (interp._order is None) == kernel_mode
    np.testing.assert_allclose(want, interp.interpolate(mesh.T).T,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("visit", ["reversed", "shuffled"])
def test_visit_order_moves_no_byte(visit, setup):
    # the spatial order is a stable sort by stencil block; rows are
    # independent, so any permutation of it gives the same bytes
    box, r, rng = setup
    interp = InterpolationMatrix(r, box, K=12, p=4)
    mesh = rng.standard_normal((24, 12 ** 3))
    want = _batch_first(interp, mesh)
    spatial = interp.build_order()
    base = np.stack(np.unravel_index(interp.columns[:, 0], (12,) * 3))
    key = np.ravel_multi_index(base // 4, (3,) * 3)
    np.testing.assert_array_equal(spatial, np.argsort(key, kind="stable"))
    interp._order = np.ascontiguousarray(
        spatial[::-1] if visit == "reversed" else rng.permutation(spatial))
    assert interp.interpolate_batch(mesh).tobytes() == want.tobytes()


def test_interleaved_gather_bytes_under_base_flags(tmp_path):
    # the kernels built without -march=native (no fused multiply-adds
    # where the machine has them): the interleaved gather still gives
    # the batch-first kernel's bytes at every width, and the library
    # passes its load-time self-test
    from repro.sparse import kernels

    compiler = kernels._compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    lib = tmp_path / "repro-kernels-base.so"
    assert kernels._compile(compiler, kernels._BASE_FLAGS, lib)
    base = kernels._load(lib)
    assert base is not None and kernels._selftest(base)
    interp, rng = _interleaved_cases("random")
    n, k3, pcube = interp.n, interp.K ** 3, interp.p ** 3
    order = interp.build_order()
    for lanes in range(1, 26):
        mesh = np.ascontiguousarray(rng.standard_normal((lanes, k3)))
        want, got = np.full((2, lanes, n), np.nan)
        base.interp(0, n, interp.weights, interp.columns, pcube, mesh, k3,
                    lanes, n, want)
        mt = np.empty((k3, lanes))
        base.interleave(0, k3, mesh, k3, lanes, mt)
        base.gather(0, n, order, interp.weights, interp.columns, pcube, mt,
                    lanes, n, got)
        assert np.array_equal(mt, mesh.T)
        assert got.tobytes() == want.tobytes(), lanes


@pytest.mark.parametrize("case", ["random", "on_mesh_point", "k_equals_p"])
def test_one_column_scatter_is_the_gather_bytes(case, kernel_mode):
    # a one-column block on one worker scatters by particle into the
    # zeroed mesh; every element is written (the NaN prefill goes) and
    # the bytes are the P' gather's, in either kernel mode
    from repro.sparse import kernels

    box = Box(8.0)
    rng = np.random.default_rng(11)
    r = rng.uniform(0, box.length, size=(40, 3))
    K, p = 16, 4
    if case == "on_mesh_point":
        r[7] = [2.0, 4.0, 6.0]                   # mesh coords (4, 8, 12)
    elif case == "k_equals_p":
        K = p = 6                                # the smallest legal mesh
    interp = InterpolationMatrix(r, box, K=K, p=p)
    vals = rng.standard_normal((r.shape[0], 3))
    mesh = interp.spread_batch(vals, out=np.full((3, K ** 3), np.nan))
    assert interp._pt is None                    # the scatter ran
    gather = np.full((3, K ** 3), np.nan)
    kernels.spread_rows(*interp.build_rows(), vals, gather, [(0, K ** 3)])
    assert np.all(np.isfinite(mesh))
    assert mesh.tobytes() == gather.tobytes()
    np.testing.assert_allclose(mesh, interp.spread(vals).T, atol=1e-13)


def test_threaded_operator_holds_rows_serial_one_does_not(setup):
    from repro import PMEOperator, PMEParams
    from repro.exec import ExecutionContext

    box, r, _ = setup
    params = PMEParams(xi=1.0, r_max=3.0, K=12, p=4)
    with ExecutionContext(backend="threads", workers=2) as ctx:
        assert PMEOperator(r, box, params, context=ctx).interp._pt is not None
    with ExecutionContext(backend="serial") as ctx:
        assert PMEOperator(r, box, params, context=ctx).interp._pt is None


def test_matrix_free_run_never_builds_rows(monkeypatch):
    # every apply of a matrix-free BD step has one column: a run on the
    # default serial context scatters, and its operator holds P alone
    from repro import Simulation
    from repro.exec import reset_default_context
    from repro.systems import random_suspension

    monkeypatch.setenv("REPRO_EXEC_WORKERS", "1")
    reset_default_context()
    try:
        sim = Simulation(random_suspension(30, 0.1, seed=3), dt=1e-3,
                         lambda_rpy=2, seed=0, target_ep=1e-2)
        sim.run(n_steps=4)
    finally:
        monkeypatch.undo()
        reset_default_context()
    op = sim.integrator.operator
    assert op.context.workers == 1
    assert op.interp._pt is None
    assert (op.memory_report()["interpolation_matrix"]
            == _p_bytes(op.interp))


def test_validation():
    box = Box(8.0)
    r = np.zeros((3, 3))
    with pytest.raises(ConfigurationError):
        InterpolationMatrix(r, box, K=4, p=6)   # K < p
    with pytest.raises(ConfigurationError):
        InterpolationMatrix(r, box, K=16, p=1)  # bad order


def _wrapper_calls(interp, lanes):
    """Each kernel wrapper that writes a buffer: the call given that
    buffer and its ranges, the buffer's shape, a shape one short, and
    the rows its ranges index."""
    from repro.sparse import kernels

    n, k3 = interp.n, interp.K ** 3
    w, c = interp.weights, interp.columns
    values, mesh = np.ones((n, lanes)), np.ones((lanes, k3))
    ids, order = np.arange(n, dtype=np.int64), interp.build_order()
    rows, mt = interp.build_rows(), np.ones(lanes * k3)
    return {
        "spread_ranges": (lambda out, rg: kernels.spread_ranges(
            w, c, ids, values, out, rg), (lanes, k3), (lanes - 1, k3), n),
        "spread_rows": (lambda out, rg: kernels.spread_rows(
            *rows, values, out, rg), (lanes, k3), (lanes, k3 - 1), k3),
        "interp_ranges": (lambda out, rg: kernels.interp_ranges(
            w, c, mesh, out, rg), (lanes, n), (lanes, n - 1), n),
        "mesh_interleave": (lambda out, rg: kernels.mesh_interleave(
            mesh, out, rg), (lanes * k3,), (lanes * k3 - 1,), k3),
        "interp_interleaved": (lambda out, rg: kernels.interp_interleaved(
            order, w, c, mt, out, rg), (lanes, n), (lanes, n - 1), n),
    }


@pytest.mark.parametrize("fault", ["short", "strided", "float32", "range"])
@pytest.mark.parametrize("wrapper", ["spread_ranges", "spread_rows",
                                     "interp_ranges", "mesh_interleave",
                                     "interp_interleaved"])
def test_kernel_wrappers_check_what_they_write(wrapper, fault, kernel_mode):
    # a buffer a wrapper writes, or a range it writes over, that does not
    # fit is refused before a pointer reaches C, in both kernel modes
    from repro.sparse import kernels

    r = np.random.default_rng(3).uniform(0, 8.0, size=(10, 3))
    interp = InterpolationMatrix(r, Box(8.0), K=8, p=4)
    call, shape, short, rows = _wrapper_calls(interp, lanes=3)[wrapper]
    if kernels.kernel_available() or wrapper in (
            "spread_ranges", "spread_rows", "interp_ranges"):
        call(np.zeros(shape), [(0, rows)])      # the fitting buffer runs
    ranges = [(0, rows)]
    if fault == "short":
        out = np.zeros(short)
    elif fault == "strided":
        out = np.zeros(shape[:-1] + (2 * shape[-1],))[..., ::2]
    elif fault == "float32":
        out = np.zeros(shape, dtype=np.float32)
    else:
        out, ranges = np.zeros(shape), [(0, rows + 1)]
    with pytest.raises(ConfigurationError, match=r"\bout\b|\bmt\b|range"):
        call(out, ranges)
