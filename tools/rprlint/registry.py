"""Rule registry.

Rules are classes with a :class:`RuleMeta` ``meta`` attribute and a
``check(ctx)`` generator; registering them with :func:`register` makes
them discoverable by the engine, the CLI (``--list-rules``) and the
documentation.  Every run applies every rule; ``# noqa: RPRnnn`` is the
per-line escape.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Type

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import FileContext

__all__ = ["RuleMeta", "Rule", "register", "all_rules", "SYNTAX_ERROR_ID"]

#: Pseudo-rule id of unparseable files (emitted by the engine itself).
SYNTAX_ERROR_ID = "RPR000"


@dataclass(frozen=True)
class RuleMeta:
    """Static description of one rule.

    Attributes
    ----------
    id:
        Stable identifier (``RPRnnn``).
    name:
        Short kebab-case name, e.g. ``"global-numpy-rng"``.
    summary:
        One-line description shown by ``--list-rules``.
    rationale:
        Why the pattern is dangerous for this codebase, tied to the
        paper section the rule protects (see docs/static_analysis.md).
    """

    id: str
    name: str
    summary: str
    rationale: str = ""


class Rule:
    """Base class of all lint rules.

    Subclasses set ``meta`` and implement :meth:`check`, a generator of
    :class:`~rprlint.findings.Finding` objects for one parsed file.
    Rules must be stateless across files; per-file state lives in local
    variables of ``check``.
    """

    meta: RuleMeta

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node: ast.AST,
                message: str,
                hint: str = "") -> Finding:
        """Build a :class:`Finding` for an AST node of ``ctx``."""
        return Finding(path=ctx.display_path, line=node.lineno,
                       col=node.col_offset, rule=self.meta.id,
                       message=message, hint=hint)


_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = cls.meta.id
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]
