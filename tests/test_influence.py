"""Tests for the PME influence function."""

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.pme.influence import InfluenceFunction
from repro.pme.mesh import Mesh


@pytest.fixture
def influence():
    mesh = Mesh(Box(10.0), 16)
    return InfluenceFunction(mesh, xi=1.0, p=6)


def _random_spectrum(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((3,) + mesh.rshape)
            + 1j * rng.standard_normal((3,) + mesh.rshape))


def test_zero_mode_removed(influence):
    c = _random_spectrum(influence.mesh)
    d = influence.apply(c)
    np.testing.assert_allclose(d[:, 0, 0, 0], 0.0)


def test_transversality(influence):
    # output spectrum is perpendicular to k at every mode
    mesh = influence.mesh
    c = _random_spectrum(mesh)
    d = influence.apply(c)
    gx, gy, gz = mesh.k_grids()
    dot = d[0] * gx + d[1] * gy + d[2] * gz
    assert np.abs(dot).max() < 1e-10 * max(np.abs(d).max(), 1.0)


def test_projector_idempotent_up_to_scalar(influence):
    # applying twice equals applying once with the scalar squared
    # (the projector part is idempotent)
    c = _random_spectrum(influence.mesh, seed=1)
    once = influence.apply(c.copy())
    twice = influence.apply(once.copy())
    scalar = influence.scalar
    safe = np.where(scalar == 0.0, 1.0, scalar)
    np.testing.assert_allclose(twice / safe, once,
                               atol=1e-10 * np.abs(once).max())


def test_in_place_application(influence):
    c = _random_spectrum(influence.mesh, seed=2)
    expected = influence.apply(c.copy())
    out = influence.apply(c, out=c)
    assert out is c
    np.testing.assert_allclose(c, expected)


def test_memory_factor_six(influence):
    # storing the scalar instead of the 3x3 tensor saves exactly 6x
    assert influence.tensor_memory_bytes == 6 * influence.memory_bytes


def test_scalar_includes_volume_normalization():
    # doubling the box at fixed K scales the stored scalar by K^3/V and
    # the physical kernel change; just verify the 1/V factor directly
    mesh1 = Mesh(Box(10.0), 16)
    inf1 = InfluenceFunction(mesh1, xi=1.0, p=6)
    mesh2 = Mesh(Box(20.0), 32)  # same spacing, 8x volume
    inf2 = InfluenceFunction(mesh2, xi=1.0, p=6)
    # identical k modes exist in both; compare k = (2pi/10, 0, 0) which is
    # mode (1,0,0) in box 10 and (2,0,0) in box 20
    ratio = inf2.scalar[2, 0, 0] / inf1.scalar[1, 0, 0]
    # scalar includes K^3/V: (32^3/20^3) / (16^3/10^3) = 1
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_shape_validation(influence):
    with pytest.raises(ConfigurationError):
        influence.apply(np.zeros((3, 4, 4, 3), dtype=complex))


def test_rejects_bad_xi():
    with pytest.raises(ConfigurationError):
        InfluenceFunction(Mesh(Box(5.0), 8), xi=0.0, p=4)


def test_root_influence_squares_to_the_influence(influence):
    # the noise's weight: sqrt(scalar) with the same (idempotent)
    # projector, applied twice, is the influence applied once; and the
    # noise adds to the drift's spectrum (the projector is linear)
    c = _random_spectrum(influence.mesh, seed=3)
    w = _random_spectrum(influence.mesh, seed=4)
    zero = np.zeros_like(c)[:, None]
    once = influence.apply(c.copy())
    root = influence.apply_batch(zero.copy(), noise=c[:, None])
    twice = influence.apply_batch(zero.copy(), noise=root)[:, 0]
    atol = 1e-12 * np.abs(once).max()
    np.testing.assert_allclose(twice, once, rtol=0, atol=atol)
    fused = influence.apply_batch(c.copy()[:, None], noise=w[:, None])
    alone = influence.apply_batch(zero.copy(), noise=w[:, None])
    np.testing.assert_allclose(fused, once[:, None] + alone, rtol=0,
                               atol=atol)
    assert np.all(influence.scalar >= 0.0)
    with pytest.raises(ConfigurationError):
        influence.apply_batch(zero.copy(), noise=w[:, None, :-1])


def test_nyquist_planes_carry_no_weight(influence):
    # a Nyquist mode's stored wavevector is not minus its conjugate
    # partner's: zero weight keeps the influence an exact Hermitian
    # multiplier (and its square root an exact root)
    K = influence.mesh.K
    for plane in (influence.scalar[K // 2], influence.scalar[:, K // 2],
                  influence.scalar[:, :, K // 2]):
        assert not plane.any()


def _signed_spectra(mesh, s, seed):
    """``(3, s) + rshape`` spectra with exact zeros of both signs."""
    rng = np.random.default_rng(seed)
    spec = (rng.standard_normal((3, s) + mesh.rshape + (2,))
            .view(np.complex128)[..., 0])
    flat = spec.reshape(-1)
    flat[::7] = 0.0
    flat.real[::5] = -0.0
    flat.imag[::13] = -0.0
    return spec


@pytest.mark.parametrize("K", [12, 15])
def test_compiled_influence_is_the_slab_loop_bytes(K, kernel_mode):
    # the compiled pass evaluates NumPy's complex arithmetic operation for
    # operation: the bytes of the slab loop, with and without noise, at an
    # even K (zeroed Nyquist planes) and an odd one, for any width and
    # worker count
    from repro.exec import ExecutionContext
    from repro.sparse.kernels import influence_kernel

    assert (influence_kernel() is None) == kernel_mode
    infl = InfluenceFunction(Mesh(Box(9.0), K), xi=0.8, p=4)
    for s in (1, 3, 8):
        spec = _signed_spectra(infl.mesh, s, seed=s)
        for noise in (None, _signed_spectra(infl.mesh, s, seed=10 + s)):
            want = infl._apply_slabs(spec.copy(), noise).tobytes()
            assert infl.apply_batch(spec.copy(), noise).tobytes() == want
            for workers in (1, 2, 3):
                with ExecutionContext("threads", workers=workers) as ctx:
                    got = infl.apply_batch(spec.copy(), noise, context=ctx)
                assert got.tobytes() == want, (s, noise is None, workers)


def test_strided_spectra_take_the_slab_loop(kernel_mode):
    # a spec or noise that is not C-contiguous complex128 runs the NumPy
    # loop, in place on the view, with the contiguous pass's bytes
    infl = InfluenceFunction(Mesh(Box(9.0), 12), xi=0.8, p=4)
    wide = _signed_spectra(infl.mesh, 6, seed=1)
    noise = _signed_spectra(infl.mesh, 6, seed=2)
    for w in (None, noise[:, ::2]):
        want = infl.apply_batch(wide[:, ::2].copy(),
                                None if w is None else w.copy())
        view = wide.copy()[:, ::2]
        assert not view.flags.c_contiguous
        assert infl.apply_batch(view, w) is view
        assert view.tobytes() == want.tobytes()
    # contiguous spec, strided noise
    spec = wide[:, :3].copy()
    want = infl.apply_batch(spec.copy(), noise[:, ::2].copy())
    assert (infl.apply_batch(spec, noise[:, ::2]).tobytes()
            == want.tobytes())
