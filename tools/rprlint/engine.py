"""Lint engine: file discovery, parsing, rule dispatch, noqa filtering.

The engine is pure analysis — it never imports the code it checks, so
it works on files with missing optional dependencies or syntax errors
(the latter are reported as findings rather than crashing the run).

Suppression follows the familiar ``noqa`` convention: a trailing
``# noqa`` comment silences every rule on that line, and
``# noqa: RPR001, RPR005`` silences only the listed rules.  For a
multi-line statement (a wrapped call, a long ``def`` signature) the
comment may sit on *any* physical line of the statement — the closing
paren included — and still suppresses findings anchored anywhere in it.

Every rule sees one parsed :class:`FileContext` at a time.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import rules as _builtin_rules  # noqa: F401 - registers RPR rules
from .findings import Finding
from .registry import SYNTAX_ERROR_ID, Rule, all_rules

__all__ = ["FileContext", "lint_source", "lint_paths", "iter_python_files"]

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<rules>[A-Z]{3}[0-9]{3}(?:\s*,\s*[A-Z]{3}[0-9]{3})*))?",
    re.IGNORECASE)

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


@dataclass
class FileContext:
    """Everything a rule may inspect about one parsed file."""

    display_path: str
    source: str
    tree: ast.Module
    #: ``line -> None`` (blanket noqa) or ``line -> set of rule ids``.
    noqa: dict[int, set[str] | None] = field(default_factory=dict)
    #: lazily computed ``(start, end)`` line ranges of statements /
    #: statement headers, for multi-line noqa suppression
    _extents: list[tuple[int, int]] | None = field(
        default=None, repr=False, compare=False)

    def statement_extents(self) -> list[tuple[int, int]]:
        if self._extents is None:
            self._extents = _statement_extents(self.tree)
        return self._extents


def _collect_noqa(source: str) -> dict[int, set[str] | None]:
    """Map line numbers to their noqa suppressions."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line or "noqa" not in line.lower():
            continue
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = {r.strip().upper() for r in rules.split(",")}
    return out


def _statement_extents(tree: ast.Module) -> list[tuple[int, int]]:
    """Line ranges over which a noqa comment suppresses a finding.

    Simple statements span ``lineno..end_lineno``.  Compound statements
    (``def``, ``if``, ``for``, ``try`` ...) contribute only their
    *header* (up to the line before the first body statement) so a noqa
    inside a function body never silences a finding on the ``def`` line.
    """
    extents: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body \
                and isinstance(body[0], (ast.stmt, ast.ExceptHandler)):
            end = max(start, body[0].lineno - 1)
        extents.append((start, end))
    return extents


def _suppressed(ctx: FileContext, finding: Finding) -> bool:
    if not ctx.noqa:
        return False
    lines = {finding.line}
    best: tuple[int, int] | None = None
    for start, end in ctx.statement_extents():
        if start <= finding.line <= end:
            if best is None or end - start < best[1] - best[0]:
                best = (start, end)
    if best is not None:
        lines.update(range(best[0], best[1] + 1))
    for line in lines:
        if line in ctx.noqa:
            rules = ctx.noqa[line]
            if rules is None or finding.rule in rules:
                return True
    return False


def parse_context(source: str, display_path: str
                  ) -> FileContext | Finding:
    """Parse one source file into a :class:`FileContext`.

    A syntax error yields the ``RPR000`` :class:`Finding` instead.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Finding(path=display_path, line=exc.lineno or 1,
                       col=(exc.offset or 1) - 1, rule=SYNTAX_ERROR_ID,
                       message=f"syntax error: {exc.msg}",
                       hint="file could not be parsed; no rules were run")
    return FileContext(display_path=display_path, source=source, tree=tree,
                       noqa=_collect_noqa(source))


def _run_file_rules(ctx: FileContext,
                    rules: Sequence[Rule]) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not _suppressed(ctx, finding):
                findings.append(finding)
    return findings


def lint_source(source: str, display_path: str) -> list[Finding]:
    """Lint one in-memory source string; returns surviving findings.

    Syntax errors produce one ``RPR000`` finding at the error location
    instead of raising.
    """
    parsed = parse_context(source, display_path)
    if isinstance(parsed, Finding):
        return [parsed]
    return sorted(_run_file_rules(parsed, all_rules()))


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & {part for part in p.parts}))
        else:
            candidates = [path]
        for p in candidates:
            key = p.resolve()
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def lint_paths(paths: Iterable[str | Path]) -> tuple[list[Finding], int]:
    """Lint files and directories; returns ``(findings, files_checked)``.

    Unreadable files raise ``OSError`` to the caller — a missing path on
    the command line is a usage error, not a lint finding.
    """
    rules = all_rules()
    findings: list[Finding] = []
    files = iter_python_files(paths)
    for path in files:
        parsed = parse_context(path.read_text(encoding="utf-8"), str(path))
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            findings.extend(_run_file_rules(parsed, rules))
    return sorted(findings), len(files)
