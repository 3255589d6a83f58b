"""Selection of the PME parameters ``(alpha, r_max, K, p)`` (paper Table III).

For every configuration the paper chooses PME parameters "such that
execution time is minimized while keeping the PME relative error e_p
less than 10^-3" (Section V.C; the procedure itself is "beyond the
scope" of the paper).  This module implements a concrete such
procedure, :func:`tune_parameters`:

1. **candidates** — cutoffs ``r_max`` on a fixed geometric grid from
   ``2.5 a`` up to the minimum-image cap ``L/2``, so the chosen cutoff
   is interior to the list (or is the cap);
2. **error control** — for each cutoff the splitting parameter ``xi`` is
   the smallest whose real-space truncation error meets the budget, and
   ``K`` the smallest FFT-friendly mesh whose reciprocal error
   (B-spline aliasing plus the modes beyond the mesh Nyquist) does.
   Both errors are *computed*, not tabulated: for unit random forces
   ``e_p^2 = (||dM||_F^2 / 3n) / (||M||_F^2 / 3n)``, and the Frobenius
   norms follow from the pair kernels — the real-space tail integral
   (:func:`real_space_error`), the aliasing sums of the spline
   (:func:`reciprocal_error`) and the row norm of the periodic RPY
   tensor (:func:`mobility_row_norm`).  Against dense Ewald the
   estimates hold within 0.6-1.5x for ``xi a`` in [0.3, 1.2], ``p`` in
   {4, 6, 8} and random suspensions (``tests/test_pme_tuning.py``);
3. **cost minimization** — each admissible ``(xi, r_max, K)`` is priced
   as one *block step* of Algorithm 2 (mobility rebuild + ``lambda_RPY``
   drift applications carrying the wave-space noise + a reciprocal
   term standing in for the noise's cost + the block-Lanczos
   iterations on the real-space half,
   :meth:`repro.perfmodel.PMECostModel.block_step`) on the machine the
   code runs on: :data:`repro.perfmodel.SUBSTRATE`, a committed one-core
   description of this NumPy/pocketfft + compiled-kernel substrate
   (the paper's Westmere-EP and KNC stay for Table I, Fig. 6 and Fig. 9;
   pass ``model=PMECostModel(WESTMERE_EP)`` to rank for them).  Among
   candidates whose cost is within the model's validated error of the
   minimum the **smallest cutoff** wins: stored blocks, build
   temporaries and build time grow as ``r_max^3`` exactly where the
   time curve is flat.

The result is a pure function of ``(n, box, target_ep, p, fluid,
model)`` — no clock, CPU count or environment is read — which is what
keeps campaign digests equal at 1 and N workers and served applies
equal to direct ones.  :func:`rank_candidates` returns the whole
ranking (``repro tune`` prints it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError, ConvergenceError
from ..geometry.box import Box
from ..perfmodel import (PMECostModel, SUBSTRATE, SUBSTRATE_COST_TOLERANCE,
                         pme_memory_bytes)
from ..perfmodel.model import BCSR_BLOCK_BYTES
from ..rpy import pse
from ..units import FluidParams, REDUCED
from .operator import PMEParams

__all__ = ["tune_parameters", "rank_candidates", "Candidate",
           "estimate_errors", "real_space_error", "reciprocal_error",
           "mobility_row_norm", "fft_friendly_size", "candidate_cutoffs",
           "VALIDATED_ORDERS"]

#: Spline orders whose reciprocal-error estimate is validated against
#: dense Ewald.
VALIDATED_ORDERS = (4, 6, 8)

#: Default cutoff grid: ``2.5 a`` times powers of 1.05 up to ``L/2`` —
#: geometric because ``K ~ 1 / r_max`` at a fixed error, so one step
#: moves the mesh by about one FFT-friendly size, at any ``n``.
_CUTOFF_START, _CUTOFF_RATIO = 2.5, 1.05

#: Error-budget divisor applied to ``target_ep`` for each of the two
#: components (real-space truncation, reciprocal sum).  They add in
#: quadrature, so 2.5 aims the total at ``0.57 target_ep``; with the
#: estimates' 0.6-1.5x accuracy the measured ``e_p`` lands in ``[0.3,
#: 0.8] target_ep``.
ERROR_SAFETY = 2.5

def _friendly_sizes(limit: int) -> np.ndarray:
    """All even 5-smooth integers (2^a 3^b 5^c, a >= 1) up to ``limit``."""
    sizes = []
    p5 = 1
    while 2 * p5 <= limit:
        p3 = p5
        while 2 * p3 <= limit:
            k = 2 * p3
            while k <= limit:
                sizes.append(k)
                k *= 2
            p3 *= 3
        p5 *= 5
    return np.array(sorted(sizes))


#: The meshes :func:`tune_parameters` chooses from.
_MESH_SIZES = _friendly_sizes(1 << 13)


def fft_friendly_size(minimum: int) -> int:
    """Smallest even 5-smooth integer (2^a 3^b 5^c) >= ``minimum``."""
    k = max(2, int(minimum))
    sizes = _MESH_SIZES if k <= _MESH_SIZES[-1] else _friendly_sizes(2 * k)
    return int(sizes[np.searchsorted(sizes, k)])


def candidate_cutoffs(box: Box, radius: float = 1.0) -> list[float]:
    """The default ``r_max`` candidates: the fixed geometric grid
    ``2.5 a * 1.05^i`` below the minimum-image cap ``L/2``, and the cap."""
    half = box.length / 2
    start = _CUTOFF_START * radius
    steps = math.ceil(math.log(max(half / start, 1.0))
                      / math.log(_CUTOFF_RATIO))
    return [start * _CUTOFF_RATIO ** i for i in range(steps)] + [half]


# ----------------------------------------------------------------------
# the error model
# ----------------------------------------------------------------------

def mobility_row_norm(n: int, box: Box, radius: float = 1.0) -> float:
    """RMS row norm ``||M||_F / sqrt(3n)`` of the periodic RPY mobility
    (``mu0`` units): ``||M f||`` for a unit random force, the
    denominator of ``e_p``.

    The diagonal is the Hasimoto self mobility ``1 - 2.837 a/L + ...``;
    the off-diagonal blocks sum (Parseval, the ``1/k^4`` lattice sum
    ``16.53``) to ``rho a^2 (2.51 L - c a)``, where ``c = 19.8`` — the
    excluded near field — is fitted to ``||M f||`` of suspensions with
    n = 45 ... 8000 at volume fractions 0.05 ... 0.4.
    """
    x = radius / box.length
    diagonal = 1.0 - 2.837297 * x + 4.0 * math.pi / 3.0 * x ** 3
    density = n * radius ** 3 / box.volume
    return math.sqrt(diagonal ** 2
                     + density * max(0.0, 2.51 / x - 19.8))


#: Gauss-Laguerre nodes of the real-space tail integral.
_TAIL_NODES, _TAIL_WEIGHTS = np.polynomial.laguerre.laggauss(8)


def real_space_error(xi, r_max, n: int, box: Box, radius: float = 1.0):
    """Relative error of truncating the real-space sum at ``r_max``.

    The dropped pairs (all images beyond the cutoff) add incoherently
    for a random force:
    ``e^2 = rho/3 int_{r_max}^inf 4 pi r^2 g(r) ||M1(r)||_F^2 dr /
    row_norm^2`` (``M1 = f I + g rhat rhat^T``, the real-space tensor of
    the PSE split, :func:`repro.rpy.pse.real_space_coefficients`), the
    tail by Gauss-Laguerre with the ``exp(-2 xi^2 r^2)`` weight.  The
    PSE tail decays like ``exp(-xi^2 (r - 2a)^2)``, so it lives in the
    first coordination shells, where a suspension's pair density is not
    uniform: ``g(r)`` is bounded by the envelope ``1 + (g_c - 1)
    exp(-(r - 2a) / 2a)``, ``g_c = (1 - phi/2) / (1 - phi)^3`` the
    Carnahan-Starling contact value at the volume fraction ``phi`` (a
    jittered FCC suspension at ``phi = 0.4`` puts its second shell right
    past the tuned cutoff: the uniform density was 2x optimistic there).
    ``xi`` and ``r_max`` broadcast.
    """
    xi = np.asarray(xi, dtype=np.float64)[..., None]
    r0 = np.asarray(r_max, dtype=np.float64)[..., None]
    rate = 4.0 * xi * xi * r0                 # -d/dr of the exponent at r0
    r = r0 + _TAIL_NODES / rate
    f, g = pse.real_space_coefficients(r, xi, radius)
    phi =n * 4.0 / 3.0 * math.pi * radius ** 3 / box.volume
    contact = (1.0 - phi / 2.0) / (1.0 - phi) ** 3
    pair = 1.0 + (contact - 1.0) * np.exp(-(r - 2.0 * radius) / (2.0 * radius))
    tail = np.sum(_TAIL_WEIGHTS * np.exp(_TAIL_NODES) * 4.0 * math.pi * r * r
                  * pair * (2.0 * f * f + (f + g) ** 2),  # ||f I + g rr^T||_F^2
                  axis=-1) / rate[..., 0]
    density = n / box.volume
    return np.sqrt(density * tail / 3.0) / mobility_row_norm(n, box, radius)


@lru_cache(maxsize=None)
def _alias_shares(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spline's aliasing error, direction-averaged, per mode.

    A mode ``k`` reaches a particle through ``W(k) = sinc^p(k h / 2)``
    per axis and the ``|b(k)|^2`` deconvolution; with ``w_m = (x /
    (x + 2 pi m))^p`` (``x = k_d h``) the weights of its aliases,
    ``S1 = sum_m w_m`` and ``S2 = sum_m w_m^2``, a pair coefficient is
    off by ``4 S1^2 + 2 S2`` (relative variance, random phases) and a
    particle's own by ``|(1 + S2)/(1 + S1)^2 - 1|`` (coherent); beyond
    the Nyquist ``|x| = pi`` a mode is lost (both 1).  Averaged over
    directions (three axes, ``x = y mu``) these weight the radial
    integrals of the wave scalar and its square in ``y = k h``
    (:func:`reciprocal_error`).

    Returns ``(y, shares, dy)``: the ``y`` grid, the shares of shape
    ``(2, 2, len(y))`` — axis 0 the part inside the Nyquist cube
    (aliasing) and the part outside (truncation), axis 1 the pair and
    the own coefficient — and the trapezoid weights.
    """
    if p not in VALIDATED_ORDERS:
        raise ConfigurationError(
            f"no reciprocal-error estimate for order p={p}; use p in "
            f"{list(VALIDATED_ORDERS)}")
    x = np.linspace(0.0, math.pi, 257)
    s1 = np.zeros_like(x)
    s2 = np.zeros_like(x)
    for m in (1, -1, 2, -2, 3, -3, 4, -4):
        w = (x / (x + 2.0 * math.pi * m)) ** p
        s1 += w
        s2 += w * w
    pair_err = np.minimum(4.0 * s1 * s1 + 2.0 * s2, 1.0)
    own_err = np.minimum(np.abs((1.0 + s2) / (1.0 + s1) ** 2 - 1.0), 1.0)

    y = np.geomspace(1e-3, 80.0, 512)
    lost = np.maximum(0.0, 1.0 - math.pi / y)       # directions past Nyquist

    def aliased(err: np.ndarray) -> np.ndarray:
        """Direction average of ``err(y mu)`` over the part inside."""
        cumulative = np.concatenate(([0.0], np.cumsum(
            0.5 * (err[1:] + err[:-1]) * (x[1] - x[0]))))
        return np.interp(np.minimum(y, math.pi), x, cumulative) / y

    shares = np.array([[aliased(pair_err), aliased(own_err)], [lost, lost]])
    return y, shares, np.gradient(y)


def reciprocal_error(xi, K, p: int, n: int, box: Box, radius: float = 1.0):
    """Relative errors ``(aliasing, truncation)`` of the mesh sum.

    ``e^2 = (rho F + c^2) / row_norm^2``: ``F`` the incoherent error of
    the pair coefficients, ``F = 36 a^2 int sinc^4(ka) H^2 err(k h) /
    k^2 dk``, and ``c = (6 a / pi) int sinc^2(ka) H err(k h) dk`` the
    coherent error of each particle's own coefficient (it dominates from
    ``xi a ~ 0.5`` up), with the PSE splitting function ``H = (1 + q^2)
    exp(-q^2)``, ``q = k / 2 xi`` (:mod:`repro.rpy.pse`) and the
    spline's error shares of
    :func:`_alias_shares`.  ``xi`` and ``K`` broadcast.
    """
    y, shares, dy = _alias_shares(p)
    xi = np.asarray(xi, dtype=np.float64)
    h = box.length / np.asarray(K, dtype=np.float64)
    xi, h = np.broadcast_arrays(xi, h)
    q = y / (2.0 * (xi * h)[..., None])
    wave = (1.0 + q * q) * np.exp(-q * q)         # H, then sinc^2(ka) H
    ka = y * (radius / h)[..., None]
    wave = wave * (np.sin(ka) / ka) ** 2
    shares = shares.reshape((2, 2) + (1,) * xi.ndim + y.shape)
    pairs = 36.0 * radius ** 2 * h * np.sum(
        wave * wave / (y * y) * shares[:, 0] * dy, axis=-1)
    own = 6.0 * radius / (math.pi * h) * np.sum(
        wave * shares[:, 1] * dy, axis=-1)
    e = np.sqrt(n / box.volume * pairs + own * own
                ) / mobility_row_norm(n, box, radius)
    return e[0], e[1]


def estimate_errors(params: PMEParams, box: Box, n: int,
                    fluid: FluidParams = REDUCED) -> dict[str, float]:
    """A-priori error estimates of a PME parameter set for ``n``
    particles in ``box``.

    ``real`` (real-space truncation at ``r_max``), ``spline`` (B-spline
    aliasing on the mesh), ``recip_truncation`` (modes beyond the mesh
    Nyquist) and ``total``, their root sum of squares — the estimate of
    :func:`repro.pme.accuracy.pme_relative_error`.
    """
    a = fluid.radius
    real = float(real_space_error(params.xi, params.r_max, n, box, a))
    spline, trunc = (float(e) for e in reciprocal_error(
        params.xi, params.K, params.p, n, box, a))
    return _error_dict(real, spline, trunc)


def _error_dict(real: float, spline: float, trunc: float
                ) -> dict[str, float]:
    return {"real": real, "recip_truncation": trunc, "spline": spline,
            "total": math.sqrt(real ** 2 + spline ** 2 + trunc ** 2)}


# ----------------------------------------------------------------------
# the ranking
# ----------------------------------------------------------------------

def _xi_for_cutoffs(r_max: np.ndarray, budget: float, n: int, box: Box,
                    radius: float) -> np.ndarray:
    """The ``xi`` per cutoff at which the truncation error is the budget.

    The error falls like ``exp(-(xi r_max)^2)`` times a slow polynomial,
    so its logarithm is almost linear in ``t = (xi r_max)^2``: a secant
    iteration in ``t``, all cutoffs at once, is at round-off in six
    steps for any budget below 0.05 (eight are taken; ``xi r_max`` is
    kept in [0.3, 12]).
    """
    def excess(t: np.ndarray) -> np.ndarray:
        return np.log(real_space_error(np.sqrt(t) / r_max, r_max, n, box,
                                       radius) / budget)

    t0 = np.full_like(r_max, 2.5 ** 2)
    t1 = np.full_like(r_max, 3.5 ** 2)
    f0, f1 = excess(t0), excess(t1)
    for _ in range(8):
        slope = np.where(f1 == f0, 1.0, f1 - f0)
        t0, f0, t1 = t1, f1, np.clip(t1 - f1 * (t1 - t0) / slope,
                                     0.3 ** 2, 12.0 ** 2)
        f1 = excess(t1)
    return np.sqrt(t1) / r_max


def _mesh_for(xi: np.ndarray, budget: float, p: int, n: int, box: Box,
              radius: float) -> np.ndarray:
    """Smallest FFT-friendly ``K`` per ``xi`` whose reciprocal error
    (aliasing and truncation together) is <= budget: bisection on the
    index into the friendly sizes, all ``xi`` at once."""
    sizes = _MESH_SIZES[_MESH_SIZES >= max(p, 8)]
    lo = np.zeros(xi.shape, dtype=np.int64)
    hi = np.full(xi.shape, sizes.size - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        alias, trunc = reciprocal_error(xi, sizes[mid], p, n, box, radius)
        ok = alias * alias + trunc * trunc <= budget * budget
        hi = np.where(ok, mid, hi)
        lo = np.minimum(np.where(ok, lo, mid + 1), hi)
    return sizes[lo]


@dataclass(frozen=True)
class Candidate:
    """One admissible Ewald split and what it is modelled to cost."""

    params: PMEParams
    #: Modelled seconds of the reference block step, by part
    #: (:meth:`repro.perfmodel.PMECostModel.block_step`).
    cost: dict[str, float]
    #: Eq. 11 reciprocal memory plus the stored BCSR blocks, bytes.
    memory_bytes: float
    #: :func:`estimate_errors` of the split.
    errors: dict[str, float]
    #: Cheapest of the ranking under the model.
    cheapest: bool = False
    #: The split :func:`tune_parameters` returns: the smallest cutoff
    #: within the model's tolerance of the cheapest.
    chosen: bool = False


def rank_candidates(n: int, box: Box, target_ep: float = 1e-3, p: int = 6,
                    fluid: FluidParams = REDUCED,
                    model: PMECostModel | None = None,
                    r_max_candidates=None) -> list[Candidate]:
    """Every admissible candidate of :func:`tune_parameters` (same
    arguments), by ascending cutoff, priced and with the cheapest and
    the chosen one marked."""
    if not (0 < target_ep < 1):
        raise ConfigurationError(f"target_ep must be in (0, 1), got {target_ep}")
    if model is None:
        model = PMECostModel(SUBSTRATE)
    a = fluid.radius
    half = box.length / 2
    if r_max_candidates is None:
        r_max_candidates = candidate_cutoffs(box, a)
    cutoffs = np.array(sorted({min(float(r), half)
                               for r in r_max_candidates
                               if min(float(r), half) > 2 * a * 1.01}))
    budget = target_ep / ERROR_SAFETY
    xi = _xi_for_cutoffs(cutoffs, budget, n, box, a)
    mesh = _mesh_for(xi, budget, p, n, box, a)
    real = real_space_error(xi, cutoffs, n, box, a)
    spline, trunc = reciprocal_error(xi, mesh, p, n, box, a)
    # a cutoff no mesh of the list resolves is not a candidate
    keep = np.hypot(spline, trunc) <= budget
    if not np.any(keep):
        raise ConvergenceError(
            f"no admissible PME parameters for n={n}, L={box.length}, "
            f"target_ep={target_ep}")
    cutoffs, xi, mesh, real, spline, trunc = (
        v[keep] for v in (cutoffs, xi, mesh, real, spline, trunc))
    pair_density = n * (4.0 / 3.0) * math.pi * cutoffs ** 3 / box.volume
    cost = model.block_step(n, mesh, p, pair_density)
    memory = (pme_memory_bytes(n, mesh, p)
              + BCSR_BLOCK_BYTES * n * (pair_density + 1.0))
    total = cost["total"]
    cheapest = int(np.argmin(total))
    chosen = int(np.argmax(
        total <= total[cheapest] * (1.0 + SUBSTRATE_COST_TOLERANCE)))
    return [Candidate(
        params=PMEParams(xi=float(xi[i]), r_max=float(cutoffs[i]),
                         K=int(mesh[i]), p=p),
        cost={part: float(t[i]) for part, t in cost.items()},
        memory_bytes=float(memory[i]),
        errors=_error_dict(float(real[i]), float(spline[i]),
                           float(trunc[i])),
        cheapest=i == cheapest, chosen=i == chosen)
        for i in range(cutoffs.size)]


def tune_parameters(n: int, box: Box, target_ep: float = 1e-3, p: int = 6,
                    fluid: FluidParams = REDUCED,
                    model: PMECostModel | None = None,
                    r_max_candidates=None) -> PMEParams:
    """Choose ``(xi, r_max, K, p)`` minimizing predicted time at a target ``e_p``.

    Parameters
    ----------
    n:
        Number of particles.
    box:
        Periodic simulation box.
    target_ep:
        Target PME relative error (paper keeps ``e_p < 1e-3``).
    p:
        B-spline order (4, 6 or 8).
    fluid:
        Fluid parameters (radius enters the kernels).
    model:
        Performance model pricing a block step; defaults to the
        committed one-core description of this substrate,
        ``PMECostModel(SUBSTRATE)`` — the same on every box, so the
        result does not depend on where it is computed.  Pass
        ``PMECostModel(WESTMERE_EP)`` for the paper's machine or
        ``PMECostModel(calibrate_host())`` for the one at hand.
    r_max_candidates:
        Cutoff distances to consider (each capped at ``L/2``); default
        :func:`candidate_cutoffs`, ``2.5a * 1.05^i`` up to ``L/2``.

    Each error component gets ``target_ep /`` :data:`ERROR_SAFETY`.

    Returns
    -------
    PMEParams
        Among the admissible parameter sets whose predicted block-step
        cost is within the model's validated error of the lowest, the
        one with the smallest cutoff.
    """
    return next(c.params for c in rank_candidates(
        n, box, target_ep, p, fluid, model, r_max_candidates) if c.chosen)
