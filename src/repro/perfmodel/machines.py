"""Machine descriptions for the performance model (paper Table I).

Two machines are parameterized from the paper's Table I: the dual-socket
Intel Xeon X5680 ("Westmere-EP") host and the Intel Xeon Phi (KNC)
coprocessor.  Quantities the OCR of Table I garbled (STREAM bandwidth)
are filled with the well-documented values for these parts (dual X5680
~40 GB/s; KNC ~150 GB/s) — the *ratio*, which drives every conclusion,
is uncontroversial.

Achievable 3-D FFT rates are not constants: the paper observes that
MKL's FFT on KNC was inefficient for small transforms ("particularly
the 3D inverse FFT") but up to 1.6x faster than the CPU for large ones
(Fig. 6).  Each machine therefore carries monotone interpolation tables
``(K, GF/s)`` for forward and inverse transforms encoding that
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..config import available_cpus

__all__ = ["Machine", "WESTMERE_EP", "XEON_PHI_KNC", "SUBSTRATE",
           "SUBSTRATE_COST_TOLERANCE", "HOST"]


@dataclass(frozen=True)
class Machine:
    """Hardware parameters consumed by :class:`~repro.perfmodel.model.PMECostModel`.

    Parameters
    ----------
    name:
        Display name.
    cores, threads:
        Core/thread counts (informational; the model works with
        aggregate rates).
    frequency_ghz:
        Nominal clock (informational).
    peak_gflops_dp:
        Peak double-precision GF/s (Table I).
    stream_bandwidth_gbs:
        Sustainable memory bandwidth ``B`` in GB/s.
    memory_gb:
        Device memory capacity (bounds problem sizes; Table I).
    fft_rate_table / ifft_rate_table:
        ``(K, GF/s)`` samples of the achievable forward/inverse 3-D FFT
        rate ``P_FFT(K)``; log-K interpolated, clamped at the ends.
    spmm_ns_per_block:
        Measured real-space SpMM time per stored 3x3 block per chunk of
        up to 8 right-hand sides (the width of one pass of the BCSR
        kernel's row body), in nanoseconds; ``None`` (the Table I
        machines) prices the SpMM as bandwidth bound.
    pair_build_us:
        Measured real-space build time per pair within ``r_max`` (pair
        search, separations, coefficients, fused tensor fill and BCSR
        assembly: the whole constructor), in microseconds;
        ``None`` prices the build as the bytes it writes.
    """

    name: str
    cores: int
    threads: int
    frequency_ghz: float
    peak_gflops_dp: float
    stream_bandwidth_gbs: float
    memory_gb: float
    fft_rate_table: tuple[tuple[int, float], ...] = field(default=())
    ifft_rate_table: tuple[tuple[int, float], ...] = field(default=())
    spmm_ns_per_block: float | None = None
    pair_build_us: float | None = None

    def _interp(self, table: tuple[tuple[int, float], ...], K):
        ks, vs = np.array(table).T
        return np.interp(np.log2(K), np.log2(ks), vs)

    def fft_rate(self, K: int) -> float:
        """Achievable forward 3-D FFT rate ``P_FFT(K)`` in GF/s."""
        return self._interp(self.fft_rate_table, K)

    def ifft_rate(self, K: int) -> float:
        """Achievable inverse 3-D FFT rate ``P_IFFT(K)`` in GF/s."""
        return self._interp(self.ifft_rate_table, K)

    @property
    def bandwidth_bytes(self) -> float:
        """STREAM bandwidth in bytes/second."""
        return self.stream_bandwidth_gbs * 1e9

    @property
    def memory_bytes(self) -> float:
        """Device memory capacity in bytes."""
        return self.memory_gb * 2 ** 30


#: Dual-socket Intel Xeon X5680 host (paper Table I, left column).
WESTMERE_EP = Machine(
    name="2x Intel X5680 (Westmere-EP)",
    cores=12, threads=24, frequency_ghz=3.33,
    peak_gflops_dp=160.0, stream_bandwidth_gbs=40.0, memory_gb=24.0,
    # MKL multithreaded 3-D FFTs sustain a roughly flat ~12-15% of peak
    # on this part across the mesh sizes of Table III.
    fft_rate_table=((16, 14.0), (32, 18.0), (64, 22.0), (128, 24.0),
                    (256, 22.0), (512, 20.0)),
    ifft_rate_table=((16, 13.0), (32, 17.0), (64, 21.0), (128, 23.0),
                     (256, 21.0), (512, 19.0)),
)

#: Intel Xeon Phi (Knights Corner) coprocessor (paper Table I, right column).
XEON_PHI_KNC = Machine(
    name="Intel Xeon Phi (KNC)",
    cores=61, threads=244, frequency_ghz=1.09,
    # KNC's STREAM rating is ~150 GB/s, but the scattered access
    # patterns of spreading/interpolation sustain well below that on
    # this architecture; the model uses the effective figure that
    # makes Eq. 10 reproduce the paper's Fig. 6 window.
    peak_gflops_dp=1074.0, stream_bandwidth_gbs=100.0, memory_gb=8.0,
    # The paper: "for small numbers of particles, KNC is only slightly
    # faster than or even slower than Westmere-EP ... mainly due to
    # inefficient FFT implementations in MKL on KNC, particularly for
    # the 3D inverse FFT"; for large meshes KNC reaches ~1.6x overall
    # (Fig. 6).  The rate tables are calibrated so the Eq. 10 comparison
    # reproduces exactly that window: below parity at K <~ 50, saturating
    # near 1.6x at the largest Table III meshes.
    fft_rate_table=((16, 4.0), (32, 8.0), (64, 16.0), (128, 28.0),
                    (256, 34.0), (512, 36.0)),
    ifft_rate_table=((16, 3.0), (32, 6.0), (64, 13.0), (128, 24.0),
                     (256, 30.0), (512, 32.0)),
)


#: The substrate this package runs on, as measured: pocketfft one mesh
#: lane at a time, NumPy influence function, compiled BCSR / gather
#: kernels — on ONE core, so the description (and every Ewald split
#: ranked with it) is the same on a 1-CPU and a 64-CPU box.  A recorded
#: output of :func:`repro.perfmodel.calibrate.calibrate_host` (best of
#: five runs per entry; Xeon @ 2.1 GHz VM, GCC 12.2 ``-O3``, NumPy 2.4.6,
#: SciPy 1.17.1; table in EXPERIMENTS.md) with ``cores`` set to the one
#: the rates were measured on.  The FFT rates are 6.4-8.5 ns per mesh
#: point per lane from K = 20 to 128; ``pair_build_us`` is the rebuild
#: in compiled passes (same protocol and host: 0.20 at 100 k pairs,
#: 0.22-0.29 from 200 k to 1.1 M).  This is the default ranking model
#: of :func:`repro.pme.tuning.tune_parameters`; regenerate it for
#: another box with ``repro profile --json``.
SUBSTRATE = Machine(
    name="substrate (pocketfft per lane + compiled BCSR/gather, one core)",
    cores=1, threads=1, frequency_ghz=0.0,
    peak_gflops_dp=28.52, stream_bandwidth_gbs=6.2, memory_gb=8.0,
    fft_rate_table=((16, 2.77), (20, 3.86), (24, 4.73), (30, 5.22),
                    (36, 5.15), (48, 6.31), (54, 6.46), (64, 7.04),
                    (72, 6.8), (90, 7.13), (96, 7.08), (128, 6.15)),
    ifft_rate_table=((16, 3.14), (20, 4.3), (24, 5.12), (30, 5.48),
                     (36, 5.4), (48, 6.18), (54, 5.94), (64, 7.04),
                     (72, 6.43), (90, 6.66), (96, 6.4), (128, 5.19)),
    spmm_ns_per_block=5.9, pair_build_us=0.20,
)

#: Validated error of ``PMECostModel(SUBSTRATE).block_step``: the worst
#: relative deviation between the modelled and the measured cost of the
#: reference block over the calibration table (n = 200 ... 4000,
#: ``r_max`` = 4a ... 14a; EXPERIMENTS.md).  Candidates whose modelled
#: cost differ by less than this are a tie the model cannot break.
SUBSTRATE_COST_TOLERANCE = 0.15


def _measure_host() -> Machine:
    """The machine running this process: :data:`SUBSTRATE`'s measured
    one-core rates under the CPU count of the affinity mask.

    What the profile overlay, ``repro info`` and the Fig. 5 benchmark
    price with; :func:`repro.perfmodel.calibrate.calibrate_host`
    re-measures the rates on the box at hand.
    """
    cores = available_cpus()
    return replace(SUBSTRATE, name=f"host ({cores} core, substrate rates)",
                   cores=cores, threads=cores)


#: Description of the machine running this process (used for Fig. 5).
HOST = _measure_host()
