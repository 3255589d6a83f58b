"""repro.lint — physics-aware static analysis.

An AST linter (``python -m repro.lint``, ``repro lint``, ``repro-lint``)
whose per-file rules target the failure modes of fast Brownian dynamics
codes (unvalidated position arrays, global RNG state, unguarded
Cholesky factorizations, missing minimum-image folds, dtype drift,
swallowed solver diagnostics, mutable defaults, ``assert``-based
validation, failures dropped outside the resilience taxonomy, ad-hoc
worker pools, blocking calls in async code, names a simplification
removed); ``repro-lint --list-rules`` prints the set.

It is tooling only: the numeric core imports nothing from this package
and validates its arguments in each entry point's body with
:mod:`repro.utils.validation`.

See ``docs/static_analysis.md`` for each rule's rationale and the paper
section it protects.
"""

from __future__ import annotations

from .engine import lint_paths, lint_source
from .findings import REPORT_JSON_SCHEMA, Finding
from .registry import all_rules, get_rule, resolve_selection

__all__ = [
    "Finding",
    "REPORT_JSON_SCHEMA",
    "lint_paths",
    "lint_source",
    "all_rules",
    "get_rule",
    "resolve_selection",
]
