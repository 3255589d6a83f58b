"""repro.lint — physics-aware static analysis and runtime array contracts.

Two cooperating layers keep the package's array invariants honest:

* **Static layer** — an AST linter (``python -m repro.lint``, ``repro
  lint``, ``repro-lint``) whose per-file rules target the failure modes
  of fast Brownian dynamics codes (unvalidated position arrays, global
  RNG state, unguarded Cholesky factorizations, missing minimum-image
  folds, dtype drift, swallowed solver diagnostics, mutable defaults,
  ``assert``-based validation, failures dropped outside the resilience
  taxonomy, ad-hoc worker pools, blocking calls in async code, names
  a simplification removed);
  ``repro-lint --list-rules`` prints the set.
* **Runtime layer** — :mod:`repro.lint.contracts`, lightweight
  decorators (``@positions_arg``, ``@force_block_arg``,
  ``@returns_spd``, ...) applied across the public entry points and
  toggled by the ``REPRO_CHECKS`` environment variable (``0`` off,
  ``1`` shape checks, ``strict`` finiteness + SPD debug gates).

See ``docs/static_analysis.md`` for each rule's rationale and the paper
section it protects.
"""

from __future__ import annotations

from importlib import import_module

from .contracts import (
    BASIC,
    OFF,
    STRICT,
    array_arg,
    check_level,
    contract,
    force_block_arg,
    positions_arg,
    returns_spd,
    spd_arg,
    trajectory_arg,
)

# The analyser is tooling: its names resolve on first use (PEP 562), so
# the numeric core's ``from ..lint.contracts import ...`` does not load
# the rule engine into every process.
_ANALYSER_NAMES = {
    "lint_paths": "engine",
    "lint_source": "engine",
    "Finding": "findings",
    "REPORT_JSON_SCHEMA": "findings",
    "all_rules": "registry",
    "get_rule": "registry",
    "resolve_selection": "registry",
}


def __getattr__(name: str):
    if name not in _ANALYSER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(".engine", __name__)      # registers every rule first
    value = getattr(import_module("." + _ANALYSER_NAMES[name], __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Finding",
    "REPORT_JSON_SCHEMA",
    "lint_paths",
    "lint_source",
    "all_rules",
    "get_rule",
    "resolve_selection",
    "OFF",
    "BASIC",
    "STRICT",
    "check_level",
    "contract",
    "positions_arg",
    "force_block_arg",
    "trajectory_arg",
    "array_arg",
    "spd_arg",
    "returns_spd",
]
