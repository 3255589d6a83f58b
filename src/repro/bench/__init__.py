"""Shared infrastructure for the paper-reproduction benchmarks.

Each module in the top-level ``benchmarks/`` directory regenerates one
table or figure of the paper (see DESIGN.md's experiment index).  The
helpers here keep those modules small: scale selection (CI-sized by
default, paper-sized via ``REPRO_BENCH_SCALE=paper``), cached system
construction, wall-clock measurement and aligned-table printing.
"""

from .harness import (
    TimingStats,
    bench_scale,
    cached_suspension,
    format_bytes,
    format_table,
    measure_seconds,
    print_table,
)
from .record import bench_output_dir, record_benchmark

__all__ = [
    "TimingStats",
    "bench_scale",
    "bench_output_dir",
    "cached_suspension",
    "format_bytes",
    "format_table",
    "measure_seconds",
    "print_table",
    "record_benchmark",
]
