"""Analytic performance model of PME (paper Section IV.D).

The paper models each reciprocal-space phase separately: spreading,
interpolation and the influence function are memory-bandwidth bound
(time = bytes moved / STREAM bandwidth), while the FFTs are compute
bound (time = flops / achievable FFT rate).  The model, Eq. 10, is
validated against measurements in Fig. 5 and then *used* to balance
the hybrid CPU + Xeon Phi execution (Section IV.E).

This subpackage implements the model verbatim and ships the paper's
Table I machine descriptions, which is how the hardware-dependent
results (Figs. 6 and 9) are reproduced on hardware we do not have —
see DESIGN.md, "Substitutions".
"""

from .machines import (Machine, WESTMERE_EP, XEON_PHI_KNC, SUBSTRATE,
                       SUBSTRATE_COST_TOLERANCE, HOST)
from .calibrate import calibrate_host
from .model import (
    PMECostModel,
    REFERENCE_KRYLOV_ITERATIONS,
    REFERENCE_LAMBDA_RPY,
    spreading_bytes,
    interpolation_bytes,
    influence_bytes,
    fft_flops,
    pme_memory_bytes,
)

__all__ = [
    "Machine",
    "WESTMERE_EP",
    "XEON_PHI_KNC",
    "SUBSTRATE",
    "SUBSTRATE_COST_TOLERANCE",
    "HOST",
    "calibrate_host",
    "PMECostModel",
    "REFERENCE_LAMBDA_RPY",
    "REFERENCE_KRYLOV_ITERATIONS",
    "spreading_bytes",
    "interpolation_bytes",
    "influence_bytes",
    "fft_flops",
    "pme_memory_bytes",
]
