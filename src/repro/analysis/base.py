"""Checker interface and per-file context for the lint engine.

A checker is a small class with a ``rule`` name, an optional module
``scope``, and a ``check(ctx)`` method yielding :class:`Finding`s over
the file's AST. The engine owns file discovery, suppression handling,
and caching; checkers only look at one parsed file at a time.

Module scoping
--------------
Rules like *determinism* only make sense inside the scoring packages —
a ``set`` comprehension in a test helper is fine. Each file therefore
resolves to a dotted module name (the path from its last ``repro``
component, e.g. ``src/repro/index/segments.py`` → ``repro.index.segments``);
files outside the package tree resolve to ``None`` and scoped rules
skip them. Fixture files, and the reference scoring path under
``tests/reference/``, opt into a scope explicitly with a module pragma
on any of their first lines::

    # repro: lint-module[repro.index.fake]

Suppressions
------------
A finding is suppressed by ``# repro: lint-ok[rule]`` (or a
comma-separated rule list) on the reported line, or on an immediately
preceding comment-only line. Suppressions should carry a reason after
the bracket; the meta-test keeps the repo's own suppressions reviewed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .findings import Finding

_MODULE_PRAGMA = re.compile(r"#\s*repro:\s*lint-module\[([A-Za-z0-9_.]+)\]")
_SUPPRESS_PRAGMA = re.compile(r"#\s*repro:\s*lint-ok\[([A-Za-z0-9_,\s-]+)\]")
_COMMENT_ONLY = re.compile(r"^\s*#")


def resolve_module(path: Path) -> str | None:
    """The dotted module name of *path*, anchored at its last ``repro``
    path component, or ``None`` when the file is outside the package."""
    parts = list(path.parts)
    anchor = -1
    for i, part in enumerate(parts):
        if part == "repro":
            anchor = i
    if anchor < 0:
        return None
    tail = parts[anchor:-1]
    stem = path.stem
    if stem != "__init__":
        tail = [*tail, stem]
    return ".".join(tail)


def _scan_pragmas(
    lines: list[str],
) -> tuple[str | None, dict[int, frozenset[str]]]:
    """Return the module pragma (if any) and a 1-based line → rule-set
    suppression map, with comment-only pragmas forwarded to the next
    source line."""
    module_pragma: str | None = None
    suppressions: dict[int, frozenset[str]] = {}
    pending: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if module_pragma is None:
            pragma = _MODULE_PRAGMA.search(line)
            if pragma:
                module_pragma = pragma.group(1)
        match = _SUPPRESS_PRAGMA.search(line)
        rules = (
            {rule.strip() for rule in match.group(1).split(",") if rule.strip()}
            if match
            else set()
        )
        if _COMMENT_ONLY.match(line) or not line.strip():
            pending |= rules
            continue
        applicable = rules | pending
        pending = set()
        if applicable:
            suppressions[lineno] = frozenset(applicable)
    return module_pragma, suppressions


@dataclass
class FileContext:
    """One parsed file handed to every applicable checker."""

    path: Path
    tree: ast.Module
    lines: list[str]
    module: str | None
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, source: str) -> "FileContext":
        tree = ast.parse(source, filename=str(path))
        lines = source.splitlines()
        module_pragma, suppressions = _scan_pragmas(lines)
        module = module_pragma or resolve_module(path)
        return cls(
            path=path,
            tree=tree,
            lines=lines,
            module=module,
            suppressions=suppressions,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        return rules is not None and finding.rule in rules


class Checker:
    """Base class for one lint rule."""

    #: the rule name used in reports and ``lint-ok[...]`` pragmas
    rule: str = ""
    #: one-line description shown by the rule catalog
    description: str = ""
    #: dotted module prefixes the rule applies to; ``None`` = every file
    scope: tuple[str, ...] | None = None
    #: dotted modules exempt even when inside ``scope``
    exempt: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module is not None and ctx.module in self.exempt:
            return False
        if self.scope is None:
            return True
        if ctx.module is None:
            return False
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule,
            message=message,
        )
