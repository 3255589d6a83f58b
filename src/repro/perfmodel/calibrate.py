"""Self-calibration of the host machine description.

The Fig. 5 experiment overlays the Section IV.D model on real
measurements.  Rather than hand-tuning the host's FFT rates and
effective bandwidth, :func:`calibrate_host` measures them directly:

* 3-D r2c/c2r FFT rates at a few mesh sizes — the PME pipeline's own
  lane transforms, so the model is calibrated on the code it predicts
  (GF/s using the model's own ``2.5 K^3 log2 K^3`` flop convention, so
  model and measurement cancel consistently),
* the effective bandwidth ``B`` from the pipeline's streaming mesh
  pass, the influence function, charged what Eq. 10 charges it,
* the two real-space rates Eq. 10 has no term for — the BCSR SpMM per
  stored block and the rebuild per pair — on the package's own
  :class:`~repro.pme.realspace.RealSpaceOperator`.

The committed :data:`~repro.perfmodel.machines.SUBSTRATE` is one
recorded output of this function; ``repro profile --json`` prints a
fresh one as a literal.
"""

from __future__ import annotations

import numpy as np

from ..config import available_cpus
from ..exec import INLINE
from ..geometry.box import Box
from ..pme.influence import InfluenceFunction
from ..pme.mesh import Mesh
from ..pme.operator import _irfftn_lanes, _rfftn_lanes
from ..pme.realspace import RealSpaceOperator
from ..sparse.kernels import SPMM_CHUNK
from ..systems.suspension import make_suspension
from ..utils.timing import Timer
from .machines import Machine
from .model import influence_bytes

__all__ = ["calibrate_host"]


def _time_best(fn, repeats: int = 5) -> float:
    timer = Timer()
    best = float("inf")
    for _ in range(repeats):
        timer.start()
        fn()
        best = min(best, timer.stop())
    return best


def _fft_rate(K: int, inverse: bool) -> float:
    """Measured 3-D (i)FFT rate in GF/s at mesh dimension ``K``: the
    pipeline's transform of that direction on one column's three
    lanes."""
    mesh = np.random.default_rng(0).standard_normal((3, K, K, K))
    spec = np.empty((3, K, K, K // 2 + 1), dtype=np.complex128)
    _rfftn_lanes(mesh, spec, INLINE)
    flops = 3 * 2.5 * K ** 3 * np.log2(K ** 3)
    if inverse:
        # consumes ``spec``; what it leaves is still a finite spectrum
        t = _time_best(lambda: _irfftn_lanes(spec, mesh, INLINE))
    else:
        t = _time_best(lambda: _rfftn_lanes(mesh, spec, INLINE))
    return flops / t / 1e9


def _bandwidth_gbs(K: int = 64, columns: int = 4) -> float:
    """Effective bandwidth ``B`` in GB/s: the pipeline's own streaming
    mesh pass — the influence function over ``columns`` spectra —
    charged the ``52 K^3`` bytes per column Eq. 10 charges it."""
    mesh = Mesh(Box(float(K)), K)
    influence = InfluenceFunction(mesh, xi=0.5, p=6)
    rng = np.random.default_rng(0)
    spec = (rng.standard_normal((3, columns) + mesh.rshape)
            + 1j * rng.standard_normal((3, columns) + mesh.rshape))
    t = _time_best(lambda: influence.apply_batch(spec))
    return columns * influence_bytes(K) / t / 1e9


def _real_space_rates(n: int = 1000, r_max: float = 10.0
                      ) -> tuple[float, float]:
    """Measured ``(spmm_ns_per_block, pair_build_us)`` on a random
    suspension at volume fraction 0.2: a product one chunk of the SpMM
    row body wide and the whole constructor."""
    suspension = make_suspension(n, 0.2, seed=0)

    def build() -> RealSpaceOperator:
        return RealSpaceOperator(suspension.positions, suspension.box,
                                 xi=0.4, r_max=r_max)

    t_build = _time_best(build, repeats=3)
    op = build()
    block = np.random.default_rng(0).standard_normal((3 * n, SPMM_CHUNK))
    t_spmm = _time_best(lambda: op.apply_block(block, context=INLINE))
    return (t_spmm / op.nnz_blocks * 1e9, t_build / op.n_pairs * 1e6)


def calibrate_host(mesh_dims: tuple[int, ...] = (16, 20, 24, 30, 36, 48, 54, 64,
                                                 72, 90, 96, 128),
                   name: str = "host (calibrated)") -> Machine:
    """Measure this machine and return a :class:`Machine` description.

    Takes a few seconds; the result is suitable for the Fig. 5
    model-overlay and for ranking PME parameter choices on the host
    (``tune_parameters(model=PMECostModel(calibrate_host()))``).  All
    rates are one-core rates, whatever ``cores`` says.
    """
    fft = tuple((K, round(float(_fft_rate(K, inverse=False)), 2))
                for K in mesh_dims)
    ifft = tuple((K, round(float(_fft_rate(K, inverse=True)), 2))
                 for K in mesh_dims)
    bw = _bandwidth_gbs()
    spmm_ns, pair_us = _real_space_rates()
    cores = available_cpus()
    return Machine(
        name=name, cores=cores, threads=cores, frequency_ghz=0.0,
        peak_gflops_dp=round(max(v for _, v in fft) * 4, 2),
        stream_bandwidth_gbs=round(bw, 2),
        memory_gb=8.0,
        fft_rate_table=fft,
        ifft_rate_table=ifft,
        spmm_ns_per_block=round(spmm_ns, 2),
        pair_build_us=round(pair_us, 3),
    )
