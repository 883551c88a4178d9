"""``fork-safety`` — only module-level callables cross the fork seam.

The cold build (:mod:`repro.index.parallel`) submits work to a
fork-based process pool.
A lambda, closure, or bound method handed to ``submit``/``map``/
``Process(target=...)`` either fails to pickle outright or — worse
under the ``fork`` start method — captures live state (locks, mmap
handles, half-built indexes) that silently diverges in the child.
Every callable crossing the seam must therefore be a module-level
function, mirroring ``_analyze_chunk``.

The rule runs everywhere (pools appear in benchmarks and tests too)
and flags the callable argument of:

* ``<pool>.submit/map/apply/apply_async/imap/imap_unordered/starmap/
  starmap_async`` where ``<pool>`` was created from
  ``ProcessPoolExecutor(...)`` or ``<ctx>.Pool(...)`` (or is a name
  containing ``pool``/``executor``);
* ``Process(target=...)`` and pool ``initializer=...`` keywords;
* ``functools.partial`` wrappers are unwrapped to their first argument.

Violations: lambdas, names bound to lambdas, functions defined inside
another function (closures), and ``self.x``/``obj.x`` bound methods on
local objects. Attribute access through an imported module alias
(``module.function``) stays allowed.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .base import Checker, FileContext
from .findings import Finding

_SUBMIT_METHODS = {
    "submit",
    "map",
    "apply",
    "apply_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
}
_POOLISH_NAME = re.compile(r"pool|executor", re.IGNORECASE)


def _is_pool_constructor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in {"ProcessPoolExecutor", "Pool"}
    if isinstance(func, ast.Attribute):
        return func.attr in {"ProcessPoolExecutor", "Pool"}
    return False


def _is_process_constructor(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "Process"
    if isinstance(func, ast.Attribute):
        return func.attr == "Process"
    return False


def _is_partial(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "partial"
    if isinstance(func, ast.Attribute):
        return func.attr == "partial"
    return False


class _ModuleInfo:
    """Names that are safe to submit: module-level defs and imports."""

    def __init__(self, tree: ast.Module):
        self.module_defs: set[str] = set()
        self.module_aliases: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_defs.add(stmt.name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self.module_aliases.add(
                        alias.asname or alias.name.split(".")[0]
                    )
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    self.module_defs.add(alias.asname or alias.name)


class _Scope(ast.NodeVisitor):
    """One function (or module) body: tracks lambda bindings, nested
    defs, local object names, and pool-bound names."""

    def __init__(
        self,
        checker: "ForkSafetyChecker",
        ctx: FileContext,
        info: _ModuleInfo,
        findings: list[Finding],
        at_module_level: bool,
    ):
        self.checker = checker
        self.ctx = ctx
        self.info = info
        self.findings = findings
        self.at_module_level = at_module_level
        self.lambda_names: set[str] = set()
        self.nested_defs: set[str] = set()
        self.local_names: set[str] = set()
        self.pool_names: set[str] = set()

    # -- scope bookkeeping ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if not self.at_module_level:
            self.nested_defs.add(node.name)
        self.checker._check_scope(self.ctx, self.info, node, self.findings)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def _bind(self, target: ast.expr, value: ast.expr | None) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        self.local_names.add(name)
        self.lambda_names.discard(name)
        self.pool_names.discard(name)
        if isinstance(value, ast.Lambda):
            self.lambda_names.add(name)
        elif value is not None and _is_pool_constructor(value):
            self.pool_names.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._bind(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self._bind(node.target, node.value)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind(item.optional_vars, item.context_expr)
        self.generic_visit(node)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_For(self, node: ast.For) -> None:
        self._bind(node.target, None)
        self.generic_visit(node)

    # -- submission sites ----------------------------------------------------------

    def _is_poolish(self, node: ast.expr) -> bool:
        if _is_pool_constructor(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.pool_names or bool(
                _POOLISH_NAME.search(node.id)
            )
        if isinstance(node, ast.Attribute):
            return bool(_POOLISH_NAME.search(node.attr))
        return False

    def _describe_violation(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.lambda_names:
                return f"{name!r}, a name bound to a lambda"
            if name in self.nested_defs:
                return f"{name!r}, a function defined inside another function"
            return None
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name):
                receiver = value.id
                if receiver in {"self", "cls"}:
                    return f"the bound method {receiver}.{node.attr}"
                if (
                    receiver in self.local_names
                    and receiver not in self.info.module_aliases
                ):
                    return (
                        f"{receiver}.{node.attr}, a method bound to a "
                        "local object"
                    )
            return None
        if _is_partial(node):
            call = node  # partial(fn, ...): the wrapped callable must be safe
            assert isinstance(call, ast.Call)
            if call.args:
                return self._describe_violation(call.args[0])
        return None

    def _check_callable(self, node: ast.expr, where: str) -> None:
        described = self._describe_violation(node)
        if described is not None:
            self.findings.append(
                self.checker.finding(
                    self.ctx,
                    node,
                    f"{described} is passed to {where}; callables crossing "
                    "the fork seam must be module-level functions "
                    "(pickling/fork-safety)",
                )
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SUBMIT_METHODS
            and self._is_poolish(func.value)
        ):
            target: ast.expr | None = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg in {"func", "fn"}:
                    target = kw.value
            if target is not None:
                self._check_callable(target, f"a pool's .{func.attr}()")
        if _is_process_constructor(node):
            for kw in node.keywords:
                if kw.arg == "target":
                    self._check_callable(kw.value, "Process(target=...)")
        if _is_pool_constructor(node):
            for kw in node.keywords:
                if kw.arg == "initializer":
                    self._check_callable(kw.value, "a pool initializer")
        self.generic_visit(node)


class ForkSafetyChecker(Checker):
    rule = "fork-safety"
    description = (
        "callables submitted to process pools must be module-level "
        "functions (no lambdas, closures, or bound methods)"
    )
    scope = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: list[Finding] = []
        info = _ModuleInfo(ctx.tree)
        self._check_scope(ctx, info, ctx.tree, findings)
        yield from findings

    def _check_scope(
        self,
        ctx: FileContext,
        info: _ModuleInfo,
        root: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        at_module_level = isinstance(root, ast.Module)
        scope = _Scope(self, ctx, info, findings, at_module_level)
        if not at_module_level:
            args = root.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ):
                scope.local_names.add(arg.arg)
        for stmt in root.body:
            scope.visit(stmt)
