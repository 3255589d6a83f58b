"""Command-line interface of the linter: ``python tools/rprlint [paths ...]``.

Exit codes follow the convention CI gates on: ``0`` no findings, ``1``
findings were reported, ``2`` usage error (unknown option, unreadable
path).
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import lint_paths
from .findings import Finding, report_to_dict
from .registry import all_rules

__all__ = ["main", "format_github"]

_PROG = "rprlint"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Physics-aware static analysis for the repro package "
                    "(--list-rules prints the rules; see "
                    "docs/static_analysis.md)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "json", "github"],
                        default="text",
                        help="output format (github emits workflow-command "
                             "annotations for CI)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every registered rule and exit")
    return parser


_RULE_NAMES = {rule.meta.id: rule.meta.name for rule in all_rules()}


def format_github(finding: Finding) -> str:
    """One GitHub Actions workflow-command annotation per finding.

    Rendered by Actions as an inline warning on the PR diff; newlines
    and the command-significant characters are escaped per the
    workflow-command spec.
    """
    def _escape(text: str, *, prop: bool) -> str:
        text = (text.replace("%", "%25").replace("\r", "%0D")
                    .replace("\n", "%0A"))
        if prop:
            text = text.replace(":", "%3A").replace(",", "%2C")
        return text

    name = _RULE_NAMES.get(finding.rule, "syntax-error")
    title = _escape(f"{finding.rule} {name}", prop=True)
    message = finding.message + (f" ({finding.hint})" if finding.hint
                                 else "")
    return (f"::warning file={_escape(finding.path, prop=True)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={title}::{_escape(message, prop=False)}")


def _emit(findings: list[Finding], files_checked: int, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report_to_dict(findings, files_checked), indent=2))
        return
    render = format_github if fmt == "github" else Finding.format_text
    for finding in findings:
        print(render(finding))
    summary = (f"{len(findings)} finding(s) in {files_checked} file(s)"
               if findings else
               f"clean: {files_checked} file(s), no findings")
    print(summary)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code (0 clean, 1 findings)."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.meta.id}  {rule.meta.name}")
            print(f"    {rule.meta.summary}")
        return 0

    try:
        findings, files_checked = lint_paths(args.paths)
    except OSError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2

    _emit(findings, files_checked, args.format)
    return 1 if findings else 0
