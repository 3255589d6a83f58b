"""Tests for the hybrid CPU + coprocessor scheduler (Section IV.E)."""

import numpy as np
import pytest

from repro import Box, PMEOperator, PMEParams
from repro.errors import ConfigurationError
from repro.parallel.hybrid import HybridPlan, HybridScheduler, OffloadModel
from repro.perfmodel import WESTMERE_EP, XEON_PHI_KNC


@pytest.fixture(scope="module")
def operator():
    box = Box.for_volume_fraction(40, 0.2)
    rng = np.random.default_rng(30)
    r = rng.uniform(0, box.length, size=(40, 3))
    return PMEOperator(r, box, PMEParams(xi=1.0, r_max=4.0, K=32, p=4))


@pytest.fixture
def scheduler():
    return HybridScheduler()


class TestExecution:
    def test_single_vector_matches_apply(self, operator, scheduler):
        f = np.random.default_rng(0).standard_normal(3 * operator.n)
        u_hybrid, plan = scheduler.execute(operator, f)
        assert u_hybrid.tobytes() == operator.apply(f).tobytes()
        assert isinstance(plan, HybridPlan)

    def test_block_matches_apply(self, operator, scheduler):
        f = np.random.default_rng(1).standard_normal((3 * operator.n, 8))
        # per-device column shares are, bytewise, columns of the block
        u_hybrid, plan = scheduler.execute(operator, f)
        assert u_hybrid.tobytes() == operator.apply(f).tobytes()
        assert sum(plan.assignments) == 8


class TestPlanning:
    def test_single_vector_offloads_reciprocal(self, scheduler):
        plan = scheduler.plan_single(n=50_000, K=128, p=6, pair_density=20.0)
        # CPU does real space, first accelerator the reciprocal part
        assert plan.assignments[0] == 0
        assert plan.assignments[1] == 1

    def test_block_plan_assigns_all_vectors(self, scheduler):
        plan = scheduler.plan_block(n=50_000, K=128, p=6, pair_density=20.0,
                                    n_vectors=16)
        assert sum(plan.assignments) == 16
        assert len(plan.assignments) == 3     # CPU + 2 KNC

    def test_block_plan_uses_accelerators_for_large_systems(self, scheduler):
        plan = scheduler.plan_block(n=100_000, K=256, p=6, pair_density=20.0,
                                    n_vectors=16)
        assert plan.assignments[1] + plan.assignments[2] > 0

    def test_speedup_grows_with_system_size(self, scheduler):
        # the Fig. 9 shape: hybrid speedup increases with workload
        small = scheduler.plan_block(n=1000, K=32, p=6, pair_density=10.0,
                                     n_vectors=16)
        large = scheduler.plan_block(n=200_000, K=256, p=6,
                                     pair_density=20.0, n_vectors=16)
        assert large.speedup > small.speedup
        assert large.speedup > 1.5

    def test_hybrid_never_slower_in_plan(self, scheduler):
        for n, K in ((1000, 32), (10_000, 64), (100_000, 128)):
            plan = scheduler.plan_block(n=n, K=K, p=6, pair_density=15.0,
                                        n_vectors=16)
            # greedy assignment may only beat or match CPU-only
            assert plan.hybrid_time <= plan.cpu_only_time * 1.0 + 1e-12

    def test_no_accelerators_degenerates(self):
        sched = HybridScheduler(accelerators=())
        plan = sched.plan_single(n=1000, K=64, p=6, pair_density=10.0)
        assert plan.speedup == pytest.approx(1.0)

    def test_balance_alpha_cutoff(self, scheduler):
        box_volume = 50.0 ** 3
        r = scheduler.balance_alpha_cutoff(
            n=50_000, box_volume=box_volume, K=128, p=6,
            r_max_grid=np.linspace(2.5, 8.0, 12))
        assert 2.5 <= r <= 8.0

    def test_balance_alpha_requires_accelerator(self):
        sched = HybridScheduler(accelerators=())
        with pytest.raises(ConfigurationError):
            sched.balance_alpha_cutoff(1000, 1000.0, 64, 6, [3.0])

    def test_plan_block_validation(self, scheduler):
        with pytest.raises(ConfigurationError):
            scheduler.plan_block(1000, 64, 6, 10.0, n_vectors=0)


class TestOffloadModel:
    def test_transfer_time_includes_latency(self):
        model = OffloadModel(bandwidth_gbs=6.0, latency_s=1e-4)
        assert model.transfer_time(0) == pytest.approx(1e-4)
        assert model.transfer_time(6e9) == pytest.approx(1.0 + 1e-4)

    def test_per_vector_scales_with_n(self):
        model = OffloadModel()
        assert model.per_vector_time(100_000) > model.per_vector_time(1000)

    def test_small_systems_gain_little(self):
        # offload overhead kills the benefit for tiny systems — the
        # paper's observation about small configurations
        sched = HybridScheduler(
            offload=OffloadModel(bandwidth_gbs=6.0, latency_s=1e-3))
        plan = sched.plan_block(n=500, K=16, p=4, pair_density=5.0,
                                n_vectors=16)
        assert plan.speedup < 2.0
