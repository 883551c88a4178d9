"""``mmap-discipline`` — mapped snapshot sections are read-only.

v3 snapshots are served zero-copy: :mod:`repro.storage.binary` maps a
section container and hands out ``memoryview`` casts over the shared
pages, and the loader wraps them as ``np.frombuffer`` views. Writing
through such a view corrupts the snapshot for every process mapping it
— the crash-safety story (generational ``CURRENT`` swaps) assumes
sealed files never change. Similarly, a ``Segment``'s compiled columns
are the immutable query-time truth; mutating them outside the
sanctioned construction paths changes every later score.

Two sub-rules:

* **view mutation** (every module): no item assignment, augmented
  assignment, ``del``, or in-place method call (``byteswap``/``append``/
  ``fill``/``sort``/…) on a value derived from ``memoryview(...)``, a
  mapped-section accessor (``.array(...)``/``.blob(...)``), a
  ``.cast(...)`` or ``np.frombuffer(...)`` of one, or a slice of any of
  those;
* **column mutation** (``repro.index`` only): the compiled column
  attributes (``_term_cols``, ``_entity_cols``, ``_evidence_cols``) may
  only be written inside the sanctioned construction path, a segment's
  one constructor (``__init__``). The evidence columns hold mapped
  views too, and the Eq. 3 fold gathers every ranking's rows from them.
  (The write buffer's growing columns carry other names.)
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .base import Checker, FileContext
from .findings import Finding

_VIEW_SOURCES = {"array", "blob"}
#: module names ``np.frombuffer`` is reached through
_NUMPY = {"np", "numpy"}
_MUTATING_METHODS = {
    "byteswap",
    "fill",
    "put",
    "partition",
    "append",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "reverse",
    "sort",
    "clear",
    "frombytes",
    "fromlist",
    "fromunicode",
    "update",
    "setdefault",
}
_COLUMN_ATTR = re.compile(r"^_(term|entity|evidence)_cols$")
_SANCTIONED_COLUMN_WRITERS = {"__init__"}
_DICT_MUTATORS = {"update", "clear", "pop", "popitem", "setdefault"}


def _attr_name(node: ast.expr) -> str | None:
    """The attribute name when *node* is ``<anything>.<attr>``."""
    return node.attr if isinstance(node, ast.Attribute) else None


class _Scope(ast.NodeVisitor):
    def __init__(
        self,
        checker: "MmapDisciplineChecker",
        ctx: FileContext,
        findings: list[Finding],
        function_stack: tuple[str, ...],
        column_rule: bool,
    ):
        self.checker = checker
        self.ctx = ctx
        self.findings = findings
        self.function_stack = function_stack
        self.column_rule = column_rule
        self.view_names: set[str] = set()
        self.column_aliases: set[str] = set()

    # -- taint classification --------------------------------------------------------

    def is_view(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.view_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "memoryview":
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _VIEW_SOURCES:
                    return True
                if func.attr == "cast" and self.is_view(func.value):
                    return True
                if (
                    func.attr == "frombuffer"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in _NUMPY
                    and bool(node.args)
                    and self.is_view(node.args[0])
                ):
                    # a numpy array over the mapped pages, not a copy
                    return True
            return False
        if isinstance(node, ast.Subscript):
            # slicing a memoryview yields another view over the same pages
            return isinstance(node.slice, ast.Slice) and self.is_view(node.value)
        return False

    def _is_column_attr(self, node: ast.expr) -> bool:
        if not self.column_rule:
            return False
        attr = _attr_name(node)
        if attr is not None and _COLUMN_ATTR.match(attr):
            return True
        return isinstance(node, ast.Name) and node.id in self.column_aliases

    def _sanctioned(self) -> bool:
        return bool(
            self.function_stack
            and self.function_stack[-1] in _SANCTIONED_COLUMN_WRITERS
        )

    # -- bookkeeping -----------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.checker._check_scope(
            self.ctx,
            node,
            self.findings,
            (*self.function_stack, node.name),
            self.column_rule,
        )

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.checker.finding(self.ctx, node, message))

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        view_value = self.is_view(node.value)
        column_value = self._is_column_attr(node.value)
        for target in node.targets:
            self._check_store(target)
            if isinstance(target, ast.Name):
                if view_value:
                    self.view_names.add(target.id)
                else:
                    self.view_names.discard(target.id)
                if column_value:
                    self.column_aliases.add(target.id)
                else:
                    self.column_aliases.discard(target.id)
            elif self._is_column_attr(target) and not self._sanctioned():
                self._flag(
                    target,
                    f"compiled column attribute .{_attr_name(target)} is "
                    "assigned outside the sanctioned construction paths",
                )

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self._check_store(node.target)
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self.is_view(node.value):
                self.view_names.add(node.target.id)
            else:
                self.view_names.discard(node.target.id)
        elif (
            isinstance(node.target, ast.Attribute)
            and self._is_column_attr(node.target)
            and node.value is not None
            and not self._sanctioned()
        ):
            self._flag(
                node.target,
                f"compiled column attribute .{node.target.attr} is "
                "assigned outside the sanctioned construction paths",
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        self._check_store(node.target)
        if isinstance(node.target, ast.Name) and self.is_view(node.target):
            # in place on a numpy view: ``view += x`` writes every element
            self._flag(
                node.target,
                "augmented assignment through a view of a mapped snapshot "
                "section writes it in place; copy it (.copy()) first",
            )

    def visit_Delete(self, node: ast.Delete) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._check_store(target)

    def _check_store(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Subscript):
            return
        base = target.value
        if self.is_view(base):
            self._flag(
                target,
                "item write through a view of a mapped snapshot section "
                "(memoryview or np.frombuffer); mapped pages are shared and "
                "sealed — copy into a fresh array() or .copy() first",
            )
        elif self._is_column_attr(base) and not self._sanctioned():
            self._flag(
                target,
                f"item write into compiled column attribute "
                f".{_attr_name(base) or '<alias>'} outside the sanctioned "
                "construction paths",
            )

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _MUTATING_METHODS and self.is_view(func.value):
            self._flag(
                node,
                f".{func.attr}() mutates a view of a mapped snapshot "
                "section in place; copy into a fresh array() or .copy() first",
            )
        elif (
            func.attr in _DICT_MUTATORS
            and self._is_column_attr(func.value)
            and not self._sanctioned()
        ):
            self._flag(
                node,
                f".{func.attr}() mutates compiled column attribute "
                f".{_attr_name(func.value) or '<alias>'} outside the "
                "sanctioned construction paths",
            )

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if isinstance(item.optional_vars, ast.Name) and self.is_view(
                item.context_expr
            ):
                self.view_names.add(item.optional_vars.id)
        self.generic_visit(node)


class MmapDisciplineChecker(Checker):
    rule = "mmap-discipline"
    description = (
        "no writes through mapped-section views; compiled columns only "
        "mutate inside sanctioned construction paths"
    )
    scope = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: list[Finding] = []
        column_rule = ctx.module is not None and (
            ctx.module == "repro.index" or ctx.module.startswith("repro.index.")
        )
        self._check_scope(ctx, ctx.tree, findings, (), column_rule)
        yield from findings

    def _check_scope(
        self,
        ctx: FileContext,
        root: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
        function_stack: tuple[str, ...],
        column_rule: bool,
    ) -> None:
        scope = _Scope(self, ctx, findings, function_stack, column_rule)
        for stmt in root.body:
            scope.visit(stmt)
