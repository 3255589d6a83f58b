"""Shared helpers of the paper-reproduction scripts ``bench_*.py``.

Each ``benchmarks/bench_*.py`` script regenerates one table or figure
of the paper (see DESIGN.md's experiment index).  The helpers here keep
those scripts small: scale selection (CI-sized by default, paper-sized
with ``REPRO_BENCH_SCALE=paper``), cached system construction,
wall-clock measurement, aligned-table printing and the machine-readable
``BENCH_<name>.json`` record (written to ``REPRO_BENCH_OUTDIR``,
default the current directory).

The scripts import this module as ``common``: ``python
benchmarks/bench_x.py`` and ``pytest benchmarks/bench_x.py`` both put
``benchmarks/`` on ``sys.path``.  The benchmark suite's own harness is
``benchmarks/suite/harness.py``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from repro.obs.profiling import format_table
from repro.systems.suspension import Suspension, make_suspension

__all__ = ["bench_scale", "bench_output_dir", "cached_suspension",
           "measure_seconds", "TimingStats", "print_table",
           "record_benchmark", "RECORD_SCHEMA"]

#: Version tag of the record layout (bump on incompatible change).
RECORD_SCHEMA = "repro-bench-record/1"


def bench_scale() -> str:
    """The active benchmark scale, from ``REPRO_BENCH_SCALE``.

    ``"ci"`` (default) keeps every benchmark laptop-sized; ``"paper"``
    runs the paper's full problem sizes.
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() or "ci"
    if scale not in ("ci", "paper"):
        raise ValueError(
            f"REPRO_BENCH_SCALE must be 'ci' or 'paper', got {scale!r}")
    return scale


def bench_output_dir() -> Path:
    """Directory receiving ``BENCH_*.json`` (``REPRO_BENCH_OUTDIR``)."""
    return Path(os.environ.get("REPRO_BENCH_OUTDIR", "."))


@lru_cache(maxsize=32)
def cached_suspension(n: int, volume_fraction: float = 0.2,
                      seed: int = 0) -> Suspension:
    """A process-wide cached suspension (benchmarks reuse systems)."""
    return make_suspension(n, volume_fraction, seed=seed)


class TimingStats(NamedTuple):
    """Wall-clock statistics of a repeated measurement.

    ``best`` is the headline number (least-noise estimate); ``mean``
    and ``std`` quantify run-to-run spread for the benchmark records.
    """

    best: float
    mean: float
    std: float
    repeats: int


def measure_seconds(fn, repeats: int = 1, warmup: int = 0) -> TimingStats:
    """Wall-clock statistics of ``fn()`` over ``repeats`` runs.

    ``std`` is the population standard deviation (0.0 for a single
    repeat).  Use ``.best`` where a single number is wanted.
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    return TimingStats(best=min(samples), mean=mean, std=math.sqrt(var),
                       repeats=len(samples))


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print :func:`repro.obs.profiling.format_table` output and a blank
    line."""
    print(format_table(title, headers, rows))
    print()


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of a table cell to a JSON value."""
    if isinstance(value, TimingStats):
        return {"best": value.best, "mean": value.mean, "std": value.std,
                "repeats": value.repeats}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):          # numpy scalar
        return value.item()
    return str(value)


def record_benchmark(name: str, headers: Iterable[str],
                     rows: Iterable[Iterable[Any]],
                     meta: dict[str, Any] | None = None,
                     out_dir: str | Path | None = None) -> Path:
    """Write ``BENCH_<name>.json`` and return the path written.

    The record carries the table as printed (``headers`` and ``rows``;
    cells may be :class:`TimingStats`, numpy scalars or strings, and
    anything else is stringified), the scale and the environment, plus
    the benchmark-specific ``meta``.  ``out_dir`` defaults to
    :func:`bench_output_dir`.
    """
    record = {
        "schema": RECORD_SCHEMA,
        "name": name,
        "scale": bench_scale(),
        "unix_time": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "headers": list(headers),
        "rows": [[_jsonable(c) for c in row] for row in rows],
    }
    if meta:
        record["meta"] = {k: _jsonable(v) for k, v in meta.items()}
    directory = Path(out_dir) if out_dir is not None else bench_output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path
