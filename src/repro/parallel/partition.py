"""Work partitioning helpers.

The paper partitions the interpolation matrix ``P`` into row blocks
(one per thread, Section IV.B.1) and statically partitions the
block-of-vectors reciprocal work between CPUs and coprocessors
(Section IV.E).  These helpers compute such partitions; they are pure
functions so the schedules are unit-testable.  ``row_blocks`` lives in
:mod:`repro.exec` beside ``ExecutionContext.run_ranges``, the one
dispatch that applies it, and is re-exported here.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..exec import row_blocks   # re-export: the context owns the partition

__all__ = ["row_blocks", "balance_by_cost"]


def balance_by_cost(costs, n_workers: int) -> list[list[int]]:
    """Assign indivisible tasks to workers minimizing the maximum load.

    Greedy longest-processing-time heuristic (sort descending, place
    each task on the least-loaded worker) — a 4/3-approximation, ample
    for the static splits of Section IV.E.

    Parameters
    ----------
    costs:
        Per-task costs (any positive floats).
    n_workers:
        Number of workers.

    Returns
    -------
    list of task-index lists, one per worker.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if np.any(costs < 0):
        raise ConfigurationError("task costs must be non-negative")
    order = np.argsort(costs)[::-1]
    loads = np.zeros(n_workers)
    assignment: list[list[int]] = [[] for _ in range(n_workers)]
    for task in order:
        w = int(np.argmin(loads))
        assignment[w].append(int(task))
        loads[w] += costs[task]
    return assignment
