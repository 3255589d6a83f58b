"""Tests for the Section IV.D performance model and Table I machines."""

import math
from dataclasses import replace

import pytest

from repro.perfmodel import (
    HOST,
    PMECostModel,
    REFERENCE_KRYLOV_ITERATIONS,
    REFERENCE_LAMBDA_RPY,
    SUBSTRATE,
    WESTMERE_EP,
    XEON_PHI_KNC,
    fft_flops,
    influence_bytes,
    interpolation_bytes,
    pme_memory_bytes,
    spreading_bytes,
)


class TestEquations:
    def test_spreading_bytes_formula(self):
        # 3*8*K^3 + 12 p^3 n + 3*8 p^3 n (paper IV.D(a))
        n, K, p = 1000, 64, 6
        assert spreading_bytes(n, K, p) == (
            24 * 64 ** 3 + 12 * 216 * 1000 + 24 * 216 * 1000)

    def test_interpolation_bytes_formula(self):
        n, K, p = 500, 32, 4
        assert interpolation_bytes(n, K, p) == 36 * 64 * 500

    def test_influence_bytes_formula(self):
        # 8 K^3/2 (scalar) + 48 K^3 (complex C and D) = 52 K^3
        K = 32
        assert influence_bytes(K) == 52 * K ** 3

    def test_fft_flops_radix2(self):
        K = 64
        assert fft_flops(K) == 3 * 2.5 * K ** 3 * math.log2(K ** 3)

    def test_eq10_total_reciprocal(self):
        # T = fft + ifft + (72 p^3 n + 76 K^3) / B  (paper Eq. 10)
        model = PMECostModel(WESTMERE_EP)
        n, K, p = 2000, 64, 6
        total = model.t_reciprocal(n, K, p)
        bandwidth_part = (72 * p ** 3 * n + 76 * K ** 3) / \
            WESTMERE_EP.bandwidth_bytes
        fft_part = (fft_flops(K) / (WESTMERE_EP.fft_rate(K) * 1e9)
                    + fft_flops(K) / (WESTMERE_EP.ifft_rate(K) * 1e9))
        assert total == pytest.approx(fft_part + bandwidth_part, rel=1e-12)

    def test_eq11_memory(self):
        # M = 24 K^3 + 12 p^3 n + 4 K^3 (paper Eq. 11)
        n, K, p = 1000, 128, 6
        assert pme_memory_bytes(n, K, p) == 28 * K ** 3 + 12 * p ** 3 * n

    def test_breakdown_sums_to_total(self):
        model = PMECostModel(XEON_PHI_KNC)
        n, K, p = 5000, 128, 6
        breakdown = model.breakdown(n, K, p)
        assert sum(breakdown.values()) == pytest.approx(
            model.t_reciprocal(n, K, p), rel=1e-12)


class TestMachines:
    def test_table1_parameters(self):
        assert WESTMERE_EP.cores == 12
        assert WESTMERE_EP.threads == 24
        assert WESTMERE_EP.peak_gflops_dp == 160.0
        assert WESTMERE_EP.memory_gb == 24.0
        assert XEON_PHI_KNC.cores == 61
        assert XEON_PHI_KNC.threads == 244
        assert XEON_PHI_KNC.memory_gb == 8.0

    def test_fft_rate_interpolation_monotone_ends(self):
        # clamped outside the table
        assert XEON_PHI_KNC.fft_rate(8) == XEON_PHI_KNC.fft_rate(16)
        assert XEON_PHI_KNC.fft_rate(1024) == XEON_PHI_KNC.fft_rate(512)

    def test_knc_slower_fft_small_meshes(self):
        # the paper's observation: KNC FFT inefficient for small K
        assert XEON_PHI_KNC.fft_rate(32) < WESTMERE_EP.fft_rate(32)

    def test_knc_faster_overall_large_meshes(self):
        # ... but the higher bandwidth + FFT rate win for large K
        cpu = PMECostModel(WESTMERE_EP)
        knc = PMECostModel(XEON_PHI_KNC)
        n, p = 100_000, 6
        assert knc.t_reciprocal(n, 256, p) < cpu.t_reciprocal(n, 256, p)

    def test_knc_ifft_slower_than_fft(self):
        # "particularly for the 3D inverse FFT"
        for K in (32, 64, 128):
            assert XEON_PHI_KNC.ifft_rate(K) < XEON_PHI_KNC.fft_rate(K)

    def test_memory_capacity_check(self):
        model = PMECostModel(XEON_PHI_KNC)
        assert model.fits_in_memory(10_000, 64, 6)
        assert not model.fits_in_memory(10_000_000, 1024, 6)

    def test_host_machine_defined(self):
        assert HOST.cores >= 1
        assert HOST.fft_rate(64) > 0

    def test_host_is_sized_by_the_affinity_mask(self, monkeypatch):
        # a CPU-limited container: the model, the calibration and the
        # worker count agree on the CPUs this process may run on
        import os

        from repro.config import RuntimeConfig
        from repro.perfmodel.calibrate import calibrate_host
        from repro.perfmodel.machines import _measure_host
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                            raising=False)
        host = _measure_host()
        assert (host.cores, host.threads) == (3, 3)
        # the rates are the committed one-core measurements, not a
        # per-core guess: only the CPU count follows the mask
        assert replace(host, name=SUBSTRATE.name, cores=1,
                       threads=1) == SUBSTRATE
        assert calibrate_host(mesh_dims=(8,)).cores == 3
        assert RuntimeConfig(backend="threads").resolved_workers() == 3


class TestRealSpaceModel:
    def test_scales_with_density_and_vectors(self):
        model = PMECostModel(WESTMERE_EP)
        t1 = model.t_real(1000, 10.0)
        t2 = model.t_real(1000, 20.0)
        assert t2 > t1
        # multi-RHS amortizes the matrix traffic: cost per vector drops
        t_block = model.t_real(1000, 10.0, n_vectors=16)
        assert t_block < 16 * t1


class TestBlockStep:
    """The cost the tuner ranks by: one block of Algorithm 2."""

    def test_parts_sum_and_formula(self):
        model = PMECostModel(SUBSTRATE)
        n, K, p, density = 1000, 24, 6, 140.0
        lam, iters = REFERENCE_LAMBDA_RPY, REFERENCE_KRYLOV_ITERATIONS
        step = model.block_step(n, K, p, density)
        assert step["total"] == pytest.approx(
            step["build"] + step["reciprocal"] + step["real"], rel=1e-12)
        assert step["reciprocal"] == pytest.approx(
            lam * model.t_reciprocal_block(n, K, p, 1)
            + iters * model.t_reciprocal_block(n, K, p, lam), rel=1e-12)
        assert step["real"] == pytest.approx(
            lam * model.t_real(n, density, 1)
            + iters * model.t_real(n, density, lam), rel=1e-12)
        assert step["build"] == model.t_build(n, density)

    def test_block_pass_amortizes_only_the_matrix(self):
        # s columns cost s single passes minus (s - 1) reads of P by
        # each gather: nothing else is shared between columns
        model = PMECostModel(SUBSTRATE)
        n, K, p, s = 2000, 32, 6, 10
        saved = (s - 1) * 2 * 12 * p ** 3 * n / SUBSTRATE.bandwidth_bytes
        assert model.t_reciprocal_block(n, K, p, s) == pytest.approx(
            s * model.t_reciprocal_block(n, K, p, 1) - saved, rel=1e-12)

    def test_measured_rates_where_the_machine_has_them(self):
        n, density = 1000, 200.0
        blocks = n * (density + 1)
        ours = PMECostModel(SUBSTRATE)
        # one chunk of up to 8 columns per stored block
        assert ours.t_real(n, density, 1) == ours.t_real(n, density, 8)
        assert ours.t_real(n, density, 10) == pytest.approx(
            2 * blocks * SUBSTRATE.spmm_ns_per_block * 1e-9)
        assert ours.t_build(n, density) == pytest.approx(
            0.5 * n * density * SUBSTRATE.pair_build_us * 1e-6)
        # Table I machines carry no such rates: bandwidth bound
        assert WESTMERE_EP.spmm_ns_per_block is None
        paper = PMECostModel(WESTMERE_EP)
        assert paper.t_real(n, density, 8) > paper.t_real(n, density, 1)
        assert paper.t_build(n, density) == pytest.approx(
            6 * 80 * blocks / WESTMERE_EP.bandwidth_bytes)

    def test_mesh_and_density_broadcast(self):
        import numpy as np

        model = PMECostModel(SUBSTRATE)
        meshes = np.array([20, 24, 54])
        densities = np.array([300.0, 140.0, 40.0])
        step = model.block_step(1000, meshes, 6, densities)
        for i in range(3):
            one = model.block_step(1000, int(meshes[i]), 6,
                                   float(densities[i]))
            assert step["total"][i] == pytest.approx(one["total"],
                                                     rel=1e-12)

    def test_substrate_is_one_core(self):
        assert (SUBSTRATE.cores, SUBSTRATE.threads) == (1, 1)
        # 6-9 ns per mesh point per lane over the meshes in use
        for K in (20, 24, 32, 54, 96):
            ns = 2.5 * math.log2(K ** 3) / SUBSTRATE.fft_rate(K)
            assert 6.0 < ns < 9.0

