"""Machine-readable benchmark records (``BENCH_<name>.json``).

Every ``benchmarks/bench_*.py`` module writes one JSON record per run
through :func:`record_benchmark`, alongside the human-readable table it
prints.  The record carries the table verbatim (headers + rows) plus
environment context (scale, python, platform), so CI can archive the
files and regressions can be diffed across commits without re-parsing
stdout.

The output directory defaults to the current working directory and is
overridable with ``REPRO_BENCH_OUTDIR``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Iterable

from ..config import get_config
from .harness import TimingStats, bench_scale

__all__ = ["record_benchmark", "bench_output_dir"]

#: Version tag of the record layout (bump on incompatible change).
RECORD_SCHEMA = "repro-bench-record/1"


def bench_output_dir() -> Path:
    """Directory receiving ``BENCH_*.json`` (``REPRO_BENCH_OUTDIR``)."""
    return Path(get_config().bench_outdir)


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

    Parameters
    ----------
    name:
        Record name; the file is ``BENCH_<name>.json``.
    headers, rows:
        The table as printed (rows may contain :class:`TimingStats`,
        numpy scalars, or strings — anything else is stringified).
    meta:
        Extra benchmark-specific context (parameters, notes).
    out_dir:
        Destination directory (default :func:`bench_output_dir`).
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
