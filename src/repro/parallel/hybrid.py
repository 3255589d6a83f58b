"""Hybrid CPU + coprocessor execution of PME (paper Section IV.E).

The paper couples the host CPUs with Intel Xeon Phi coprocessors:

* **single-vector PME** (Algorithm 2, line 9): the real-space and
  reciprocal-space terms are independent, so the reciprocal part is
  offloaded to one coprocessor while the CPU does the real-space SpMV;
  the Ewald parameter ``alpha`` is tuned so both take about the same
  time, using the Section IV.D performance model;
* **block-of-vectors PME** (line 6): there is no FFT for blocks of
  vectors, so the reciprocal pipelines of the individual vectors are
  *statically partitioned* across the CPU and all coprocessors, again
  balanced with the model.

Physical coprocessors are not available here, so the scheduler executes
every planned piece on the host — producing bit-identical numerical
results — while the *predicted* duration of each device's share comes
from the machine models (see DESIGN.md, "Substitutions").  Figure 9 is
regenerated from those predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..perfmodel.machines import Machine, WESTMERE_EP, XEON_PHI_KNC
from ..perfmodel.model import PMECostModel

__all__ = ["OffloadModel", "HybridPlan", "HybridScheduler"]


@dataclass(frozen=True)
class OffloadModel:
    """PCIe offload cost model.

    Per offloaded vector the forces go out and the velocities come back
    (``2 * 3 * 8 * n`` bytes); per mobility update the interpolation
    data (``12 p^3 n`` bytes, amortized over the ``lambda_RPY`` steps)
    is shipped once.  The latency term covers the offload-region
    launch/synchronization cost per evaluation, which on PCIe
    coprocessors is of millisecond order and is what makes small
    configurations gain little from offloading (the paper's
    observation in Section V.E).
    """

    bandwidth_gbs: float = 6.0
    latency_s: float = 1.5e-3

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` across the link."""
        return self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)

    def per_vector_time(self, n: int) -> float:
        """Offload cost of one reciprocal-space vector evaluation."""
        return self.transfer_time(2 * 3 * 8 * n)

    def setup_time(self, n: int, p: int) -> float:
        """One-time cost of shipping the interpolation data."""
        return self.transfer_time(12 * p ** 3 * n)


@dataclass
class HybridPlan:
    """A scheduled PME evaluation with per-device predicted times.

    Attributes
    ----------
    assignments:
        Number of reciprocal-space vector pipelines per device
        (index 0 is the CPU).
    device_names:
        Display names aligned with ``assignments``.
    device_times:
        Predicted busy time per device (including the CPU's real-space
        work and the coprocessors' offload overhead).
    cpu_only_time:
        Predicted time of the same work run entirely on the CPU.
    """

    assignments: list[int]
    device_names: list[str]
    device_times: list[float]
    cpu_only_time: float
    notes: dict = field(default_factory=dict)

    @property
    def hybrid_time(self) -> float:
        """Predicted wall-clock of the hybrid execution (max device load)."""
        return max(self.device_times)

    @property
    def speedup(self) -> float:
        """Predicted speedup over CPU-only execution (the Fig. 9 metric)."""
        return self.cpu_only_time / self.hybrid_time


class HybridScheduler:
    """Plans (and host-executes) hybrid PME evaluations.

    Parameters
    ----------
    cpu:
        Host machine model (default: the paper's Westmere-EP).
    accelerators:
        Coprocessor machine models (default: two KNC cards, the paper's
        testbed).
    offload:
        PCIe transfer model.
    """

    def __init__(self, cpu: Machine = WESTMERE_EP,
                 accelerators: tuple[Machine, ...] = (XEON_PHI_KNC,
                                                      XEON_PHI_KNC),
                 offload: OffloadModel = OffloadModel()):
        self.cpu = cpu
        self.accelerators = tuple(accelerators)
        self.offload = offload
        self._cpu_model = PMECostModel(cpu)
        self._acc_models = [PMECostModel(m) for m in self.accelerators]

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan_single(self, n: int, K: int, p: int, pair_density: float
                    ) -> HybridPlan:
        """Plan for one PME application (Algorithm 2, line 9).

        Real space on the CPU, reciprocal space on the first
        coprocessor; they run concurrently.
        """
        t_real = self._cpu_model.t_real(n, pair_density)
        t_recip_cpu = self._cpu_model.t_reciprocal(n, K, p)
        cpu_only = t_real + t_recip_cpu
        if not self.accelerators:
            return HybridPlan([1], [self.cpu.name], [cpu_only], cpu_only)
        t_recip_acc = (self._acc_models[0].t_reciprocal(n, K, p)
                       + self.offload.per_vector_time(n))
        names = [self.cpu.name] + [m.name for m in self.accelerators]
        times = [t_real, t_recip_acc] + [0.0] * (len(self.accelerators) - 1)
        return HybridPlan([0, 1] + [0] * (len(self.accelerators) - 1),
                          names, times, cpu_only,
                          notes={"t_recip_cpu": t_recip_cpu})

    def plan_block(self, n: int, K: int, p: int, pair_density: float,
                   n_vectors: int) -> HybridPlan:
        """Plan for a block of ``n_vectors`` PME applications (line 6).

        The CPU first does the (efficient, multi-RHS) real-space block
        SpMV, then helps with reciprocal pipelines; each coprocessor
        takes pipelines as capacity allows.  Vectors are assigned
        greedily to the device that finishes them soonest.
        """
        if n_vectors < 1:
            raise ConfigurationError(
                f"n_vectors must be >= 1, got {n_vectors}")
        t_real_block = self._cpu_model.t_real(n, pair_density, n_vectors)
        t_recip_cpu = self._cpu_model.t_reciprocal(n, K, p)
        cpu_only = t_real_block + n_vectors * t_recip_cpu

        n_dev = 1 + len(self.accelerators)
        per_task = [t_recip_cpu] + [
            m.t_reciprocal(n, K, p) + self.offload.per_vector_time(n)
            for m in self._acc_models]
        loads = [t_real_block] + [self.offload.setup_time(n, p)
                                  for _ in self.accelerators]
        counts = [0] * n_dev
        for _ in range(n_vectors):
            finish = [loads[d] + per_task[d] for d in range(n_dev)]
            d = int(np.argmin(finish))
            counts[d] += 1
            loads[d] = finish[d]
        names = [self.cpu.name] + [m.name for m in self.accelerators]
        return HybridPlan(counts, names, loads, cpu_only,
                          notes={"per_task": per_task})

    def balance_alpha_cutoff(self, n: int, box_volume: float, K: int, p: int,
                             r_max_grid) -> float:
        """Pick the real-space cutoff balancing CPU and coprocessor work.

        The paper: "the Ewald parameter alpha is tuned so that one
        real-space calculation on the CPU and one reciprocal-space
        calculation on the accelerator consume approximately equal
        amounts of execution time."  Larger ``r_max`` (smaller alpha)
        moves work onto the CPU.  Returns the cutoff from ``r_max_grid``
        with the smallest predicted load imbalance.
        """
        if not self.accelerators:
            raise ConfigurationError("no accelerators to balance against")
        t_acc = self._acc_models[0].t_reciprocal(n, K, p)
        best_r, best_gap = None, np.inf
        for r_max in r_max_grid:
            density = n * (4.0 / 3.0) * np.pi * float(r_max) ** 3 / box_volume
            gap = abs(self._cpu_model.t_real(n, density) - t_acc)
            if gap < best_gap:
                best_r, best_gap = float(r_max), gap
        return best_r

    # ------------------------------------------------------------------
    # host execution of a plan
    # ------------------------------------------------------------------

    def execute(self, operator, forces) -> tuple[np.ndarray, HybridPlan]:
        """Execute ``u = M f`` per the hybrid schedule (on the host).

        The real-space term and each device's share of reciprocal
        vector pipelines are computed separately, exactly as the
        schedule prescribes, then summed — the result is numerically
        identical to ``operator.apply(forces)`` (tested), while the
        returned plan carries the modeled per-device times.

        Both halves run on the operator's own
        :class:`~repro.exec.ExecutionContext` (if it has one); the
        per-device reciprocal shares stay sequential on the host — they
        model distinct physical devices, so overlapping them here
        would misstate the schedule the plan's times describe.
        """
        f = np.asarray(forces, dtype=np.float64)
        flat = f.ndim == 1
        fb = f[:, None] if flat else f
        s = fb.shape[1]
        params = operator.params
        density = max(operator.real.n_pairs * 2.0 / operator.n, 0.0)
        plan = (self.plan_single(operator.n, params.K, params.p, density)
                if s == 1 else
                self.plan_block(operator.n, params.K, params.p, density, s))

        u_real = operator.apply_real(fb)
        u_recip = np.empty_like(fb)
        col = 0
        split = plan.assignments if s > 1 else [0, s] + [0] * (
            len(self.accelerators) - 1)
        for count in split:
            if count == 0:
                continue
            u_recip[:, col:col + count] = operator.apply_reciprocal(
                fb[:, col:col + count])
            col += count
        # single-vector plans keep all reciprocal work on one device
        if col < s:
            u_recip[:, col:] = operator.apply_reciprocal(fb[:, col:])
        out = (u_real + u_recip) * operator.fluid.mobility0
        operator.n_applications += s
        return (out[:, 0] if flat else out), plan
