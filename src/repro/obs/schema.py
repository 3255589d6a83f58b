"""Schemas and validators for the observability export formats.

The schemas are plain dictionaries published for external consumers,
and validation is implemented directly so it works without a
``jsonschema`` dependency.  Each artifact has one format — a trace is
the Chrome trace-event (Perfetto) document, metrics are the JSON
document — and one validator.  The validators are used by the test
suite and by the CI ``observability`` job::

    python -m repro.obs.schema trace.json metrics.json

validates any mix of trace and metrics documents (told apart by the
trace's ``traceEvents`` key) and exits non-zero on the first violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

__all__ = ["TRACE_HEADER_SCHEMA", "METRICS_JSON_SCHEMA",
           "validate_trace_header", "validate_chrome_trace",
           "validate_metrics_json", "validate_file", "main"]

#: JSON-Schema-style description of the trace header: the first line
#: of a worker spool (``kind: "spool"``) and the ``otherData`` of a
#: merged trace (``kind: "merged"``).
TRACE_HEADER_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["schema", "kind", "dropped"],
    "properties": {
        "schema": {"type": "string", "pattern": "^repro-trace/"},
        "kind": {"enum": ["spool", "merged"]},
        "dropped": {"type": "integer", "minimum": 0},
        "pid": {"type": "integer"},
        "worker_id": {"type": "integer"},
        "trace_id": {"type": "string"},
        "processes": {"type": "integer", "minimum": 0},
        "truncated_workers": {"type": "array",
                              "items": {"type": "integer"}},
    },
}

#: JSON-Schema-style description of the metrics JSON export.
METRICS_JSON_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["metrics"],
    "properties": {
        "metrics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "type", "series"],
                "properties": {
                    "name": {"type": "string"},
                    "type": {"enum": ["counter", "gauge", "histogram"]},
                    "help": {"type": "string"},
                    "series": {"type": "array"},
                },
            },
        },
    },
}

#: The metadata events that name and order Perfetto tracks.
_METADATA_EVENTS = ("process_name", "process_sort_index", "thread_name",
                    "thread_sort_index")


class SchemaError(ValueError):
    """A document does not conform to its observability schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_nonnegative(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value >= 0)


def validate_trace_header(header: dict[str, Any]) -> None:
    """Validate a spool header or a merged trace's ``otherData``;
    raises :class:`SchemaError`."""
    _require(isinstance(header, dict), "header: not an object")
    _require(isinstance(header.get("schema"), str)
             and header["schema"].startswith("repro-trace/"),
             f"header: schema must be 'repro-trace/<v>', "
             f"got {header.get('schema')!r}")
    _require(header.get("kind") in ("spool", "merged"),
             f"header: kind must be 'spool' or 'merged', "
             f"got {header.get('kind')!r}")
    dropped = header.get("dropped")
    _require(_is_int(dropped) and dropped >= 0,
             "header: dropped must be a non-negative integer")


def validate_chrome_trace(doc: dict[str, Any]) -> None:
    """Validate a merged Chrome trace-event (Perfetto) document.

    Checks the ``otherData`` header and every event: a non-empty
    ``name``, a known phase, non-negative ``ts``/``dur``, integer
    ``pid``/``tid`` and ``args`` as an object.  Span and instant events
    carry an integer ``args.depth >= 0``, and ``args.worker_id`` /
    ``args.task_id`` are integers where present.  Raises
    :class:`SchemaError`.
    """
    _require(isinstance(doc, dict), "chrome trace: not an object")
    _require("traceEvents" in doc, "chrome trace: missing traceEvents")
    events = doc["traceEvents"]
    _require(isinstance(events, list), "chrome trace: traceEvents must "
             "be an array")
    _require("otherData" in doc, "chrome trace: missing otherData header")
    validate_trace_header(doc["otherData"])
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        _require(isinstance(e, dict), f"{where}: not an object")
        for key in ("name", "ph", "pid", "tid", "ts"):
            _require(key in e, f"{where}: missing required key {key!r}")
        _require(isinstance(e["name"], str) and e["name"],
                 f"{where}: name must be a non-empty string")
        _require(e["ph"] in ("X", "i", "M"),
                 f"{where}: unsupported phase {e['ph']!r}")
        _require(_is_nonnegative(e["ts"]),
                 f"{where}: ts must be a non-negative number")
        for key in ("pid", "tid"):
            _require(_is_int(e[key]), f"{where}: {key} must be an integer")
        args = e.get("args", {})
        _require(isinstance(args, dict), f"{where}: args must be an object")
        if e["ph"] == "M":
            _require(e["name"] in _METADATA_EVENTS,
                     f"{where}: unknown metadata event {e['name']!r}")
            continue
        if e["ph"] == "X":
            _require("dur" in e and _is_nonnegative(e["dur"]),
                     f"{where}: complete events need a non-negative dur")
        else:
            _require(e.get("dur", 0) == 0,
                     f"{where}: instant events must have dur == 0")
        _require("depth" in args, f"{where}: missing args.depth")
        for key in ("depth", "worker_id", "task_id"):
            if key in args:
                _require(_is_int(args[key]),
                         f"{where}: args.{key} must be an integer")
        _require(args["depth"] >= 0, f"{where}: args.depth must be >= 0")


def validate_metrics_json(doc: dict[str, Any]) -> None:
    """Validate the metrics JSON export document."""
    _require(isinstance(doc, dict) and "metrics" in doc,
             "metrics json: missing top-level 'metrics'")
    _require(isinstance(doc["metrics"], list),
             "metrics json: 'metrics' must be an array")
    for i, family in enumerate(doc["metrics"]):
        where = f"metrics[{i}]"
        for key in ("name", "type", "series"):
            _require(key in family, f"{where}: missing {key!r}")
        _require(family["type"] in ("counter", "gauge", "histogram"),
                 f"{where}: unknown type {family['type']!r}")
        for j, series in enumerate(family["series"]):
            swhere = f"{where}.series[{j}]"
            _require(isinstance(series.get("labels"), dict),
                     f"{swhere}: missing labels object")
            if family["type"] == "histogram":
                for key in ("count", "sum", "buckets"):
                    _require(key in series, f"{swhere}: missing {key!r}")
            else:
                _require("value" in series, f"{swhere}: missing 'value'")


def validate_file(path: str | Path) -> str:
    """Validate one exported file: a trace or a metrics document.

    Returns a short description of what was validated — including a
    ``WARNING`` notice when the trace recorded dropped events (the
    ``max_events`` cap truncated it; no silent caps) — or raises
    :class:`SchemaError` (or ``OSError`` / ``json.JSONDecodeError``)
    on failure.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "traceEvents" in doc:
        validate_chrome_trace(doc)
        desc = f"chrome trace ({len(doc['traceEvents'])} events)"
        return desc + _dropped_warning(doc["otherData"])
    validate_metrics_json(doc)
    return f"metrics json ({len(doc['metrics'])} families)"


def _dropped_warning(header: dict[str, Any]) -> str:
    dropped = header["dropped"]
    if dropped > 0:
        return (f" — WARNING: {dropped} events dropped at the "
                "max_events cap (raise it for complete traces)")
    return ""


def main(argv: list[str] | None = None) -> int:
    """Validate every file given on the command line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print("usage: python -m repro.obs.schema FILE [FILE ...]",
              file=sys.stderr)
        return 2
    status = 0
    for arg in argv:
        try:
            what = validate_file(arg)
        except (SchemaError, OSError, json.JSONDecodeError) as exc:
            print(f"{arg}: INVALID — {exc}")
            status = 1
        else:
            print(f"{arg}: ok — {what}")
            if "WARNING" in what:
                print(f"{arg}: warning — dropped events detected",
                      file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
