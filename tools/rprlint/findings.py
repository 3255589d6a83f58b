"""Finding records produced by the linter and their JSON representation.

A :class:`Finding` is one rule violation at one source location.  The
JSON document emitted by ``python tools/rprlint --format json`` is
described by :data:`REPORT_JSON_SCHEMA` (a JSON-Schema fragment the test
suite validates against), so CI tooling can consume the output without
parsing the human-readable text format.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        File the violation was found in (as given on the command line).
    line, col:
        1-based line and 0-based column of the offending node.
    rule:
        Rule identifier, e.g. ``"RPR002"``.
    message:
        Human-readable description of the violation.
    hint:
        A short suggestion for how to fix it.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable representation (one entry of ``findings``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }

    def format_text(self) -> str:
        """The one-line text rendering ``path:line:col: RULE message``."""
        text = f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text


#: JSON Schema of the document produced by ``--format json``.
REPORT_JSON_SCHEMA: dict = {
    "type": "object",
    "required": ["version", "findings", "counts", "files_checked"],
    "properties": {
        "version": {"type": "integer"},
        "files_checked": {"type": "integer", "minimum": 0},
        "counts": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 1},
        },
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "line", "col", "rule", "message", "hint"],
                "properties": {
                    "path": {"type": "string"},
                    "line": {"type": "integer", "minimum": 1},
                    "col": {"type": "integer", "minimum": 0},
                    "rule": {"type": "string", "pattern": "^RPR[0-9]{3}$"},
                    "message": {"type": "string"},
                    "hint": {"type": "string"},
                },
            },
        },
    },
}


def report_to_dict(findings: list[Finding], files_checked: int) -> dict:
    """Assemble the ``--format json`` document for a finished run."""
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return {
        "version": 1,
        "files_checked": files_checked,
        "counts": counts,
        "findings": [f.to_dict() for f in sorted(findings)],
    }
