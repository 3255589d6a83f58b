"""Parallel-execution substrate.

The paper's implementation techniques for multicore and manycore
machines, reproduced as explicit, testable work-partitioning logic:

* :mod:`~repro.parallel.coloring` -- the 8-color independent-set
  schedule that makes the spreading scatter-add write-conflict free
  (Section IV.B.2, Fig. 2), executed on an execution context's
  workers by :mod:`~repro.parallel.engine` (the reference schedule:
  the mobility pipeline itself scatters one column on one worker and
  otherwise gathers over ``P'`` rows),
* :mod:`~repro.parallel.partition` -- row-block and cost-balanced
  partitioning used for P construction and static work splits.

The hybrid CPU + Xeon Phi scheduler of Section IV.E executes Fig. 9's
modelled schedule only, and lives beside that figure's script in
``benchmarks/reference/hybrid.py``.

Every schedule is *executed* — the partitions and colors are applied
to real data and verified to reproduce the unpartitioned results
bit-for-bit, which is the property that makes them correct on real
parallel hardware.
"""

from .coloring import IndependentSetColoring
from .partition import row_blocks, balance_by_cost

__all__ = [
    "IndependentSetColoring",
    "row_blocks",
    "balance_by_cost",
]
