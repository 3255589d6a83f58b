"""The PME phase cost model (paper Section IV.D, Eqs. 10 and 11).

Memory-traffic expressions (bytes) and flop counts follow the paper
exactly:

* spreading moves ``3*8*K^3`` (zero-initialize the mesh) +
  ``12 p^3 n`` (the nonzeros and column indices of ``P``) +
  ``3*8*p^3 n`` (scatter of ``P^T f``);
* each PME application performs three forward and three inverse 3-D
  FFTs at ``2.5 K^3 log2(K^3)`` flops apiece (radix-2 count);
* the influence function touches the ``8 K^3/2``-byte scalar plus the
  ``2 * 3 * 16 * K^3/2`` bytes of the complex spectra ``C`` and ``D``
  (together the ``76 K^3 / B`` term of Eq. 10);
* interpolation moves ``12 p^3 n + 24 p^3 n`` bytes;
* the persistent reciprocal-space memory is
  ``M_PME = 24 K^3 + 12 p^3 n + 4 K^3`` bytes (Eq. 11).

The real-space SpMV is modeled as bandwidth bound over the BCSR bytes,
which Section IV.E uses to balance the hybrid split.

Beside Eq. 10 (one vector, one application) the model prices what a
caller of Algorithm 2 pays: a *block step* — one mobility rebuild, the
``lambda_RPY`` single-vector drift applications and the block-Lanczos
iterations on ``lambda_RPY`` columns (:meth:`PMECostModel.block_step`).
That is the cost :func:`repro.pme.tuning.tune_parameters` ranks Ewald
splits by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.kernels import SPMM_CHUNK
from .machines import Machine

__all__ = [
    "spreading_bytes",
    "interpolation_bytes",
    "influence_bytes",
    "fft_flops",
    "pme_memory_bytes",
    "real_space_bytes",
    "reciprocal_block_bytes",
    "PMECostModel",
    "REFERENCE_LAMBDA_RPY",
    "REFERENCE_KRYLOV_ITERATIONS",
    "BCSR_BLOCK_BYTES",
]

#: The reference block :meth:`PMECostModel.block_step` prices: the
#: integrators' default ``lambda_rpy`` and the block-Lanczos iteration
#: count every benchmark workload shows at ``e_k = 1e-2``.
REFERENCE_LAMBDA_RPY = 10
REFERENCE_KRYLOV_ITERATIONS = 7

#: Stored bytes per 3x3 block: 72 payload + 8 column index.
BCSR_BLOCK_BYTES = 80.0

#: The build writes each stored block once and ~5x that in temporaries
#: (separations, distances, coefficients, half-list tensors, sort keys).
_BUILD_PASSES = 6.0


def spreading_bytes(n: int, K: int, p: int) -> float:
    """Memory traffic of the spreading step (paper Eq. in IV.D(a))."""
    return 3 * 8 * K ** 3 + 12 * p ** 3 * n + 3 * 8 * p ** 3 * n


def interpolation_bytes(n: int, K: int, p: int) -> float:
    """Memory traffic of the interpolation step (paper Eq. in IV.D(d))."""
    return 12 * p ** 3 * n + 3 * 8 * p ** 3 * n


def influence_bytes(K: int) -> float:
    """Memory traffic of applying the influence function (IV.D(c)).

    One word per mode for the scalar (``8 K^3 / 2``) plus reading the
    three complex half-spectra ``C`` and writing ``D``
    (``2 * 3 * 16 * K^3 / 2``).
    """
    return 8 * K ** 3 / 2 + 2 * 3 * 16 * K ** 3 / 2


def fft_flops(K: int) -> float:
    """Flops of the three 3-D (i)FFTs of one PME application (IV.D(b))."""
    return 3 * 2.5 * K ** 3 * np.log2(K ** 3)


def pme_memory_bytes(n: int, K: int, p: int) -> float:
    """Persistent reciprocal-space memory, paper Eq. 11."""
    return 3 * 8 * K ** 3 + 12 * p ** 3 * n + 8 * K ** 3 / 2


def real_space_bytes(n: int, pair_density: float, n_vectors: int = 1) -> float:
    """Approximate memory traffic of the real-space BCSR SpMV.

    ``pair_density`` is the average number of neighbors per particle
    within ``r_max``.  Each stored block moves 72 bytes of payload plus
    8 bytes of index; source/destination vectors are amortized over the
    row (and over ``n_vectors`` right-hand sides, the multiple-RHS
    advantage of reference [24]).
    """
    payload = n * (pair_density + 1.0) * BCSR_BLOCK_BYTES
    vectors = 2 * 3 * 8 * n * n_vectors
    return payload + vectors


def reciprocal_block_bytes(n: int, K: int, p: int, n_vectors: int) -> float:
    """Non-FFT memory traffic of one reciprocal pass over ``n_vectors``
    columns, as this pipeline moves it.

    Per column the mesh terms of Eq. 10 (``24 K^3`` written by the
    spreading, ``52 K^3`` through the influence function) and the
    ``24 p^3 n`` gathered by the interpolation; per *pass* the ``12 p^3
    n`` of ``P``, read once by each of the two gathers whatever the
    block width.  The paper's ``24 p^3 n`` scatter term is absent: the
    spreading is a gather by mesh row that writes every mesh word once.
    """
    nnz = p ** 3 * n
    return n_vectors * (76 * K ** 3 + 24 * nnz) + 2 * 12 * nnz


@dataclass(frozen=True)
class PMECostModel:
    """Eq. 10 evaluated on a :class:`~repro.perfmodel.machines.Machine`.

    Parameters
    ----------
    machine:
        Hardware description supplying ``B``, ``P_FFT`` and ``P_IFFT``.
    """

    machine: Machine

    def t_spreading(self, n: int, K: int, p: int) -> float:
        """Predicted spreading time (seconds)."""
        return spreading_bytes(n, K, p) / self.machine.bandwidth_bytes

    def t_fft(self, K: int) -> float:
        """Predicted time of the three forward FFTs."""
        return fft_flops(K) / (self.machine.fft_rate(K) * 1e9)

    def t_ifft(self, K: int) -> float:
        """Predicted time of the three inverse FFTs."""
        return fft_flops(K) / (self.machine.ifft_rate(K) * 1e9)

    def t_influence(self, K: int) -> float:
        """Predicted influence-function time."""
        return influence_bytes(K) / self.machine.bandwidth_bytes

    def t_interpolation(self, n: int, K: int, p: int) -> float:
        """Predicted interpolation time."""
        return interpolation_bytes(n, K, p) / self.machine.bandwidth_bytes

    def t_reciprocal(self, n: int, K: int, p: int) -> float:
        """Total reciprocal-space time per application — paper Eq. 10."""
        return (self.t_spreading(n, K, p) + self.t_fft(K) + self.t_ifft(K)
                + self.t_influence(K) + self.t_interpolation(n, K, p))

    def t_real(self, n: int, pair_density: float, n_vectors: int = 1) -> float:
        """Real-space SpMV time per application (per block of vectors).

        The machine's measured rate per stored block and chunk of
        :data:`~repro.sparse.kernels.SPMM_CHUNK` columns where it has
        one, else bandwidth bound.
        """
        rate = self.machine.spmm_ns_per_block
        if rate is None:
            return (real_space_bytes(n, pair_density, n_vectors)
                    / self.machine.bandwidth_bytes)
        chunks = -(-n_vectors // SPMM_CHUNK)        # ceil
        return n * (pair_density + 1.0) * chunks * rate * 1e-9

    def t_reciprocal_block(self, n: int, K: int, p: int,
                           n_vectors: int) -> float:
        """One reciprocal pass over a block of ``n_vectors`` columns:
        ``3 n_vectors`` lane transforms each way at the Eq. 10 rates
        plus :func:`reciprocal_block_bytes` over ``B``."""
        return (n_vectors * (self.t_fft(K) + self.t_ifft(K))
                + reciprocal_block_bytes(n, K, p, n_vectors)
                / self.machine.bandwidth_bytes)

    def t_build(self, n: int, pair_density: float) -> float:
        """Real-space rebuild (pair search, tensors, BCSR assembly): the
        machine's measured rate per pair, else the bytes it writes."""
        rate = self.machine.pair_build_us
        if rate is None:
            return (_BUILD_PASSES * BCSR_BLOCK_BYTES * n
                    * (pair_density + 1.0) / self.machine.bandwidth_bytes)
        return 0.5 * n * pair_density * rate * 1e-6

    def block_step(self, n: int, K: int, p: int,
                   pair_density: float) -> dict[str, float]:
        """Predicted seconds of the reference block of Algorithm 2, by
        part.

        ``build + lam (recip(1) + real(1)) + iters (recip(lam) +
        real(lam))`` at ``lam = REFERENCE_LAMBDA_RPY`` and ``iters =
        REFERENCE_KRYLOV_ITERATIONS``: the rebuild, the single-vector
        drift applications and the block-Lanczos iterations.  The
        split-independent construction of ``P`` (``~ p^3 n``, 2-3 % of
        a step) is not priced.  ``K`` and ``pair_density`` may be
        arrays, one entry per candidate split.
        """
        lam, iters = REFERENCE_LAMBDA_RPY, REFERENCE_KRYLOV_ITERATIONS
        parts = {
            "build": self.t_build(n, pair_density),
            "reciprocal": (lam * self.t_reciprocal_block(n, K, p, 1)
                           + iters * self.t_reciprocal_block(n, K, p, lam)),
            "real": (lam * self.t_real(n, pair_density, 1)
                     + iters * self.t_real(n, pair_density, lam)),
        }
        parts["total"] = sum(parts.values())
        return parts

    def breakdown(self, n: int, K: int, p: int) -> dict[str, float]:
        """Per-phase predicted times, keyed like Fig. 5."""
        return {
            "spread": self.t_spreading(n, K, p),
            "fft": self.t_fft(K),
            "influence": self.t_influence(K),
            "ifft": self.t_ifft(K),
            "interpolate": self.t_interpolation(n, K, p),
        }

    def fits_in_memory(self, n: int, K: int, p: int) -> bool:
        """Whether Eq. 11's footprint fits the device memory."""
        return pme_memory_bytes(n, K, p) <= self.machine.memory_bytes
