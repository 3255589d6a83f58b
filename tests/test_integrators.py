"""Tests for the two BD integrators (Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro import Box, FluidParams
from repro.core.forces import ConstantForce, RepulsiveHarmonic
from repro.core.integrators import EwaldBD, MatrixFreeBD
from repro.errors import ConfigurationError
from repro.pme.operator import PMEParams
from repro.systems import random_suspension


@pytest.fixture(scope="module")
def suspension():
    return random_suspension(30, 0.15, seed=4)


def _nearly_deterministic_fluid():
    # vanishing temperature: Brownian term negligible, drift dominates
    return FluidParams(kT=1e-18)


def test_ewald_bd_takes_no_context(suspension):
    # the dense path has no parallel stage: an execution context is
    # MatrixFreeBD's option only
    with pytest.raises(TypeError, match="context"):
        EwaldBD(box=suspension.box, context=None)


class TestDriftConsistency:
    def test_algorithms_agree_at_zero_temperature(self, suspension):
        # with negligible noise both algorithms integrate the same ODE;
        # they must agree to the PME accuracy e_p
        fluid = _nearly_deterministic_fluid()
        force = ConstantForce(np.array([1.0, -0.5, 0.25]))
        common = dict(box=suspension.box, fluid=fluid, force_field=force,
                      dt=1e-3, lambda_rpy=5, seed=0)
        r1, _ = EwaldBD(**common, ewald_tol=1e-8).run(
            suspension.positions, 10)
        r2, _ = MatrixFreeBD(**common, target_ep=1e-5).run(
            suspension.positions, 10)
        np.testing.assert_allclose(r2, r1, atol=1e-6)

    def test_constant_force_drives_drift_along_force(self):
        # under a uniform +x force at negligible temperature every
        # particle drifts in +x (mobility is SPD and near-diagonal-
        # dominant), with only small transverse motion from HI coupling
        susp = random_suspension(20, 0.1, seed=8)
        fluid = _nearly_deterministic_fluid()
        force = ConstantForce(np.array([1.0, 0.0, 0.0]))
        bd = MatrixFreeBD(box=susp.box, fluid=fluid, force_field=force,
                          dt=1e-3, lambda_rpy=4, seed=0, target_ep=1e-4)
        r_final, _ = bd.run(susp.positions, 4)
        disp = r_final - susp.positions
        assert np.all(disp[:, 0] > 0)
        assert np.abs(disp[:, 0]).mean() > 3 * np.abs(disp[:, 1:]).mean()


class TestRunMechanics:
    def test_stats_counting(self, suspension):
        bd = MatrixFreeBD(box=suspension.box, force_field=None, dt=1e-3,
                          lambda_rpy=4, seed=1, target_ep=1e-2)
        _, stats = bd.run(suspension.positions, 10)
        assert stats.n_steps == 10
        assert stats.mobility_updates == 3      # ceil(10 / 4)
        assert len(stats.krylov_iterations) == 3

    def test_callback_invoked_every_step(self, suspension):
        bd = MatrixFreeBD(box=suspension.box, force_field=None, dt=1e-3,
                          lambda_rpy=5, seed=1, target_ep=1e-2)
        steps = []
        bd.run(suspension.positions, 7,
               callback=lambda s, w, u: steps.append(s))
        assert steps == list(range(1, 8))

    def test_unwrapped_continuity(self, suspension):
        # unwrapped positions never jump by more than a fraction of L
        bd = MatrixFreeBD(box=suspension.box, dt=1e-3,
                          force_field=RepulsiveHarmonic(suspension.box),
                          lambda_rpy=5, seed=2, target_ep=1e-2)
        prev = [suspension.positions.copy()]

        def check(step, wrapped, unwrapped):
            jump = np.abs(unwrapped - prev[0]).max()
            assert jump < suspension.box.length / 4
            prev[0] = unwrapped.copy()

        bd.run(suspension.positions, 6, callback=check)

    def test_seed_reproducibility(self, suspension):
        kw = dict(box=suspension.box, force_field=None, dt=1e-3,
                  lambda_rpy=4, target_ep=1e-2)
        r1, _ = MatrixFreeBD(**kw, seed=42).run(suspension.positions, 6)
        r2, _ = MatrixFreeBD(**kw, seed=42).run(suspension.positions, 6)
        np.testing.assert_array_equal(r1, r2)

    def test_explicit_pme_params_used(self, suspension):
        params = PMEParams(xi=0.8, r_max=4.0, K=32, p=4)
        bd = MatrixFreeBD(box=suspension.box, force_field=None, dt=1e-3,
                          lambda_rpy=4, seed=0, pme_params=params)
        bd.run(suspension.positions, 2)
        assert bd.operator.params == params

    def test_memory_accounting_orders(self, suspension):
        # matrix-free memory is far below the dense algorithm's O(n^2)
        common = dict(box=suspension.box, force_field=None, dt=1e-3,
                      lambda_rpy=4, seed=0)
        ew = EwaldBD(**common)
        ew.run(suspension.positions, 1)
        mf = MatrixFreeBD(**common, target_ep=1e-2)
        mf.run(suspension.positions, 1)
        assert ew.mobility_memory_bytes() == 2 * (3 * 30) ** 2 * 8
        assert mf.mobility_memory_bytes() > 0

    def test_validation(self, suspension):
        with pytest.raises(ConfigurationError):
            MatrixFreeBD(box=suspension.box, dt=0.0)
        with pytest.raises(ConfigurationError):
            MatrixFreeBD(box=suspension.box, dt=1e-3, lambda_rpy=0)


class TestPhysicalBehaviour:
    def test_free_diffusion_msd_scale(self):
        # a very dilute system diffuses with D ~ D_0: MSD over t steps
        # ~ 6 D t dt within statistical error
        susp = random_suspension(40, 0.01, seed=9)
        bd = MatrixFreeBD(box=susp.box, force_field=None, dt=1e-2,
                          lambda_rpy=10, seed=3, target_ep=1e-2)
        n_steps = 20
        r_final, _ = bd.run(susp.positions, n_steps)
        disp = r_final - susp.positions
        msd = float((disp ** 2).sum(axis=1).mean())
        expected = 6.0 * 1.0 * n_steps * 1e-2
        assert msd == pytest.approx(expected, rel=0.5)

    def test_repulsion_resolves_overlap(self):
        # two overlapping particles should separate under BD
        box = Box(12.0)
        r0 = np.array([[5.0, 5.0, 5.0], [6.2, 5.0, 5.0]])
        bd = MatrixFreeBD(box=box, force_field=RepulsiveHarmonic(box),
                          dt=1e-4, lambda_rpy=5, seed=4,
                          pme_params=PMEParams(xi=1.0, r_max=4.0, K=32, p=4))
        r_final, _ = bd.run(r0, 50)
        dist = np.linalg.norm(box.minimum_image(r_final[0] - r_final[1]))
        assert dist > 1.2
