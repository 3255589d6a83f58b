"""Self-calibration of the host machine description.

The Fig. 5 experiment overlays the Section IV.D model on real
measurements.  Rather than hand-tuning the host's FFT rates and
effective bandwidth, :func:`calibrate_host` measures them directly:

* 3-D r2c/c2r FFT rates at a few mesh sizes — the PME pipeline's own
  lane transforms, so the model is calibrated on the code it predicts
  (GF/s using the model's own ``2.5 K^3 log2 K^3`` flop convention, so
  model and measurement cancel consistently),
* sustainable bandwidth from a large out-of-place array copy
  (read + write), which matches how the model charges traffic.
"""

from __future__ import annotations

import numpy as np

from ..config import available_cpus
from ..exec import INLINE
from ..pme.operator import _irfftn_lanes, _rfftn_lanes
from ..utils.timing import Timer
from .machines import Machine

__all__ = ["calibrate_host"]


def _time_best(fn, repeats: int = 3) -> float:
    timer = Timer()
    best = float("inf")
    for _ in range(repeats):
        timer.start()
        fn()
        best = min(best, timer.stop())
    return best


def _fft_rate(K: int, inverse: bool) -> float:
    """Measured 3-D (i)FFT rate in GF/s at mesh dimension ``K``: the
    pipeline's transform of that direction on a one-lane stack."""
    mesh = np.random.default_rng(0).standard_normal((1, K, K, K))
    spec = np.empty((1, K, K, K // 2 + 1), dtype=np.complex128)
    _rfftn_lanes(mesh, spec, INLINE)
    flops = 2.5 * K ** 3 * np.log2(K ** 3)
    if inverse:
        # consumes ``spec``; what it leaves is still a finite spectrum
        t = _time_best(lambda: _irfftn_lanes(spec, mesh, INLINE))
    else:
        t = _time_best(lambda: _rfftn_lanes(mesh, spec, INLINE))
    return flops / t / 1e9


def _bandwidth_gbs(nbytes: int = 2 ** 26) -> float:
    """Measured copy bandwidth (read + write) in GB/s."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    t = _time_best(lambda: np.copyto(dst, src))
    return 2 * src.nbytes / t / 1e9


def calibrate_host(mesh_dims: tuple[int, ...] = (32, 64, 128),
                   name: str = "host (calibrated)") -> Machine:
    """Measure this machine and return a :class:`Machine` description.

    Takes a few seconds; the result is suitable for the Fig. 5
    model-overlay and for ranking PME parameter choices on the host.
    """
    fft = tuple((K, round(_fft_rate(K, inverse=False), 2))
                for K in mesh_dims)
    ifft = tuple((K, round(_fft_rate(K, inverse=True), 2))
                 for K in mesh_dims)
    bw = _bandwidth_gbs()
    cores = available_cpus()
    return Machine(
        name=name, cores=cores, threads=cores, frequency_ghz=0.0,
        peak_gflops_dp=max(v for _, v in fft) * 4,
        # the model's byte counts assume fused single-pass kernels; the
        # NumPy implementation makes ~2 passes per logical pass, so the
        # effective bandwidth is half the copy bandwidth
        stream_bandwidth_gbs=bw / 2,
        memory_gb=8.0,
        fft_rate_table=fft,
        ifft_rate_table=ifft,
    )
