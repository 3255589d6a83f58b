"""Parallel-execution substrate.

The paper's implementation techniques for multicore and manycore
machines, reproduced as explicit, testable work-partitioning logic:

* :mod:`~repro.parallel.coloring` -- the 8-color independent-set
  schedule that makes the spreading scatter-add write-conflict free
  (Section IV.B.2, Fig. 2), executed on an execution context's
  workers by :mod:`~repro.parallel.engine` (the reference schedule:
  the mobility pipeline itself spreads by ``P^T`` row gather),
* :mod:`~repro.parallel.partition` -- row-block and cost-balanced
  partitioning used for P construction and static work splits,
* :mod:`~repro.parallel.hybrid` -- the hybrid CPU + Xeon Phi scheduler:
  alpha-tuned real/reciprocal load balance and static partitioning of
  block-of-vector reciprocal work (Section IV.E), driven by the
  Section IV.D performance model.

On this machine the workers execute serially (single core), but every
schedule is *executed* — the partitions, colors and splits are applied
to real data and verified to reproduce the unpartitioned results
bit-for-bit, which is the property that makes them correct on real
parallel hardware.
"""

from .coloring import IndependentSetColoring
from .partition import row_blocks, balance_by_cost
from .hybrid import HybridScheduler, HybridPlan, OffloadModel

__all__ = [
    "IndependentSetColoring",
    "row_blocks",
    "balance_by_cost",
    "HybridScheduler",
    "HybridPlan",
    "OffloadModel",
]
