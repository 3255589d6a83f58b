"""Make the suite's modules and the program importable for the tests.

Run with ``pytest benchmarks/suite/tests`` from the repository root.
"""

import os
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parents[1]
REPO = SUITE.parents[1]

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(REPO / "src"), str(SUITE)]
