"""Make the reference package and the program importable for the tests.

Run with ``python -m pytest -q benchmarks/reference/tests`` from the
repository root.
"""

import os
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2]
REPO = BENCHMARKS.parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(REPO / "src"), str(BENCHMARKS)]
