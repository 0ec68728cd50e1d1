"""Rule plumbing: per-file context, the rule base class, AST helpers."""

from __future__ import annotations

import abc
import ast
import pathlib
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional

from repro.lint.violations import Violation


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one source file.

    ``display_path`` is the path as the user spelled it (relative paths
    stay relative so output is stable across machines); ``path`` is the
    resolved location, whose directories scope a rule.
    """

    path: pathlib.Path
    display_path: str
    tree: ast.Module

    def in_dirs(self, names: Iterable[str]) -> bool:
        """Does any directory component match one of ``names``?"""
        wanted = set(names)
        return any(part in wanted for part in self.path.parent.parts)

    def violation(self, node: ast.AST, code: str, message: str) -> Violation:
        """A violation anchored at ``node``'s location."""
        return Violation(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


class Rule(abc.ABC):
    """One named check with a stable code.

    Rules are stateless between runs except for per-run memoization;
    the CLI builds a fresh rule set per invocation via
    :func:`repro.lint.rules.default_rules`.
    """

    code: ClassVar[str]
    title: ClassVar[str]
    rationale: ClassVar[str]

    @abc.abstractmethod
    def applies_to(self, ctx: FileContext) -> bool:
        """Should this rule inspect ``ctx`` at all?"""

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> list[Violation]:
        """All violations of this rule in ``ctx``."""


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted path they import.

    ``import numpy as np`` maps ``np -> numpy``; ``import numpy.random``
    maps ``numpy -> numpy``; ``from datetime import datetime as dt``
    maps ``dt -> datetime.datetime``. Relative imports are skipped (the
    repo uses absolute imports throughout).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute use, through imports.

    ``np.random.rand`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``; a chain whose head is not an imported name
    resolves to None (locals never alias banned modules in this
    analysis -- an accepted imprecision).
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    canonical = aliases.get(head)
    if canonical is None:
        return None
    return f"{canonical}.{rest}" if rest else canonical
