"""rprlint — the repository's physics-aware static analysis.

An AST linter (``python tools/rprlint [paths ...]``) whose per-file
rules target the failure modes of fast Brownian dynamics codes
(unvalidated position arrays, global RNG state, unguarded Cholesky
factorizations, missing minimum-image folds, dtype drift, swallowed
solver diagnostics, mutable defaults, ``assert``-based validation,
failures dropped outside the resilience taxonomy, ad-hoc worker pools,
blocking calls in async code, names a simplification removed);
``python tools/rprlint --list-rules`` prints the set.

It is a repository tool, not part of the installed ``repro`` package,
and purely syntactic: it imports nothing of the code it checks, so it
lints a checkout where ``repro`` is not importable.

See ``docs/static_analysis.md`` for each rule's rationale and the paper
section it protects.
"""

from __future__ import annotations

from .engine import lint_paths, lint_source
from .findings import REPORT_JSON_SCHEMA, Finding
from .registry import all_rules

__all__ = [
    "Finding",
    "REPORT_JSON_SCHEMA",
    "lint_paths",
    "lint_source",
    "all_rules",
]
