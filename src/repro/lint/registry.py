"""Rule registry and ``--select`` / ``--ignore`` resolution.

Rules are classes with a :class:`RuleMeta` ``meta`` attribute and a
``check(ctx)`` generator; registering them with :func:`register` makes
them discoverable by the engine, the CLI (``--list-rules``) and the
documentation.  Selection strings are rule-id prefixes, so
``--select RPR`` matches every built-in rule and ``--ignore RPR007``
disables exactly one.
"""

from __future__ import annotations

import ast

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Type

from ..errors import ConfigurationError
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import FileContext

__all__ = ["RuleMeta", "Rule", "register", "all_rules", "get_rule",
           "resolve_selection", "SYNTAX_ERROR_ID"]

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
    :class:`~repro.lint.findings.Finding` objects for one parsed file.
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
        raise ConfigurationError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one rule by exact id."""
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise ConfigurationError(f"unknown rule id {rule_id!r}") from None


def resolve_selection(select: Iterable[str] | None,
                      ignore: Iterable[str] | None) -> set[str]:
    """Resolve ``--select`` / ``--ignore`` prefixes to a set of rule ids.

    ``select`` defaults to every registered rule; ``ignore`` is applied
    afterwards.  Each entry is a rule-id prefix (``RPR``, ``RPR00``,
    ``RPR004`` all work).  A prefix matching nothing raises
    :class:`~repro.errors.ConfigurationError` — a misspelled selection
    should fail loudly, not silently lint nothing.

    The pseudo-rule ``RPR000`` (syntax error) participates in the
    resolution like a real rule: it is on by default, an explicit
    ``--select`` must cover it for unparseable files to be reported,
    and ``--ignore RPR000`` silences it.
    """
    known = sorted([*_REGISTRY, SYNTAX_ERROR_ID])

    def expand(prefixes: Iterable[str], what: str) -> set[str]:
        out: set[str] = set()
        for prefix in prefixes:
            matched = {rid for rid in known if rid.startswith(prefix)}
            if not matched:
                raise ConfigurationError(
                    f"{what} {prefix!r} matches no known rule "
                    f"(known: {', '.join(known)})")
            out |= matched
        return out

    selected = expand(select, "--select") if select else set(known)
    if ignore:
        selected -= expand(ignore, "--ignore")
    return selected
