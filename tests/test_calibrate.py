"""Tests for host performance-model self-calibration."""

from repro.perfmodel import PMECostModel, calibrate_host


def test_calibrated_machine_is_usable():
    machine = calibrate_host(mesh_dims=(16, 32))
    assert machine.stream_bandwidth_gbs > 0
    assert machine.fft_rate(16) > 0
    assert machine.ifft_rate(32) > 0
    model = PMECostModel(machine)
    assert model.t_reciprocal(1000, 32, 6) > 0


def test_calibrated_rates_physically_plausible():
    machine = calibrate_host(mesh_dims=(16, 32))
    # a working CPU manages somewhere between 0.05 and 500 GF/s on a
    # 3-D FFT and between 0.5 and 1000 GB/s on a copy
    for K in (16, 32):
        assert 0.05 < machine.fft_rate(K) < 500
    assert 0.5 < machine.stream_bandwidth_gbs < 1000
    # the two real-space rates: a stored block takes between a cycle
    # and a cache miss per chunk, a pair between 0.05 and 50 us to build
    assert 0.2 < machine.spmm_ns_per_block < 500
    assert 0.05 < machine.pair_build_us < 50


def test_prediction_brackets_measurement():
    # the calibrated model should predict a real reciprocal application
    # within an order of magnitude (it is a bound-style model)
    import numpy as np
    from repro import Box, PMEOperator, PMEParams, obs

    machine = calibrate_host(mesh_dims=(32,))
    model = PMECostModel(machine)
    n, K, p = 1000, 32, 6
    box = Box.for_volume_fraction(n, 0.2)
    rng = np.random.default_rng(0)
    r = rng.uniform(0, box.length, size=(n, 3))
    op = PMEOperator(r, box, PMEParams(xi=1.0, r_max=4.0, K=K, p=p))
    f = rng.standard_normal(3 * n)
    op.apply_reciprocal(f)                  # warm-up
    measured = float("inf")
    for _ in range(3):
        t0 = obs.clock()
        op.apply_reciprocal(f)
        measured = min(measured, obs.clock() - t0)
    predicted = model.t_reciprocal(n, K, p)
    assert predicted / 10 < measured < predicted * 10
