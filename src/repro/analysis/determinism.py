"""``determinism`` — no unordered iteration or entropy in scoring paths.

Rankings are byte-identical across the segment kernel, the write
buffer, seals, compactions and snapshot round trips only because every
fold that feeds them visits documents in a reproducible order (see the
``(-score, doc_id)`` merge keys of ``SegmentedIndex._rank``). A
``for`` over a ``set`` — or over ``dict.keys() | dict.keys()``, which
is a set again — silently breaks that the moment two scores tie, and
only at a scale where the hash order happens to differ. Likewise,
``random``/``time.time``/``os.urandom`` in a scoring module makes
reruns incomparable. Text analysis (``repro.textproc``, and entity
spotting in ``repro.entity``) is in scope too: the order of its terms
and entities becomes postings order and snapshot bytes, and so does the
language it picks on a score tie.

The rule flags, inside ``repro.index``/``repro.core``/``repro.textproc``/
``repro.entity``:

* ``for``/comprehension iteration, ``list()``/``tuple()``/
  ``enumerate()``/``.join()`` materialization over an unordered
  expression — a ``set``/``frozenset`` literal, constructor or
  comprehension, a ``.doc_ids()`` result (a ``frozenset`` in this
  codebase), a set-operator ``BinOp`` over ``.keys()`` views, or a name
  assigned from any of those;
* imports of ``random``/``secrets``/``uuid``, ``from time import
  time``, and call sites of ``time.time``/``os.urandom``.

``sorted(...)`` over an unordered expression is the sanctioned fix;
order-independent reductions (``sum``/``min``/``max``/``len``/``any``/
``all``/``frozenset``/``set``) are allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Checker, FileContext
from .findings import Finding

_ENTROPY_MODULES = {"random", "secrets", "uuid"}
_SET_CONSTRUCTORS = {"set", "frozenset"}
_UNORDERED_RETURNING_METHODS = {"doc_ids"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_ORDER_FREE_REDUCTIONS = {
    "sum",
    "min",
    "max",
    "len",
    "any",
    "all",
    "sorted",
    "set",
    "frozenset",
}
_MATERIALIZERS = {"list", "tuple", "enumerate"}


def _is_keys_view(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
    )


class _Scope(ast.NodeVisitor):
    """One function (or module) body; tracks names bound to unordered
    values in statement order and reports order-dependent iteration."""

    def __init__(self, checker: "DeterminismChecker", ctx: FileContext):
        self.checker = checker
        self.ctx = ctx
        self.tainted: set[str] = set()
        self.findings: list[Finding] = []

    # -- unordered-expression classification ---------------------------------------

    def is_unordered(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _UNORDERED_RETURNING_METHODS
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            for side in (node.left, node.right):
                if _is_keys_view(side) or self.is_unordered(side):
                    return True
        return False

    # -- statements ----------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.checker._check_scope(self.ctx, node.body, self.findings)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        unordered = self.is_unordered(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if unordered:
                    self.tainted.add(target.id)
                else:
                    self.tainted.discard(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self.is_unordered(node.value):
                self.tainted.add(node.target.id)
            else:
                self.tainted.discard(node.target.id)

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.checker.finding(self.ctx, node, message))

    def _check_iter(self, node: ast.expr, what: str) -> None:
        if self.is_unordered(node):
            self._flag(
                node,
                f"{what} iterates an unordered set expression; ranking and "
                "merge outputs must not depend on hash order — wrap it in "
                "sorted(...) or suppress with a reason",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr) -> None:
        for gen in getattr(node, "generators", ()):
            self._check_iter(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building a set from a set is fine — order is discarded again
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _MATERIALIZERS
            and node.args
            and self.is_unordered(node.args[0])
        ):
            self._flag(
                node,
                f"{func.id}() materializes an unordered set expression in "
                "hash order — use sorted(...) instead",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self.is_unordered(node.args[0])
        ):
            self._flag(
                node,
                "str.join over an unordered set expression is "
                "hash-order-dependent — sort the operand first",
            )
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            if receiver in _ENTROPY_MODULES:
                self._flag(
                    node,
                    f"{receiver}.{func.attr}() injects entropy into a "
                    "scoring path; reruns must be reproducible",
                )
            elif receiver == "time" and func.attr == "time":
                self._flag(
                    node,
                    "time.time() in a scoring path makes reruns "
                    "incomparable; use perf_counter/monotonic for timing "
                    "outside scoring folds",
                )
            elif receiver == "os" and func.attr == "urandom":
                self._flag(node, "os.urandom() injects entropy into a scoring path")
        self.generic_visit(node)


class DeterminismChecker(Checker):
    rule = "determinism"
    description = (
        "no unordered set/dict-view iteration or entropy sources in "
        "ranking and merge paths"
    )
    scope = (
        "repro.index",
        "repro.core",
        "repro.textproc",
        "repro.entity",
        "repro.baselines",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: list[Finding] = []
        for stmt in ctx.tree.body:
            self._check_imports(ctx, stmt, findings)
        self._check_scope(ctx, ctx.tree.body, findings)
        yield from findings

    def _check_imports(
        self, ctx: FileContext, stmt: ast.stmt, findings: list[Finding]
    ) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                root = alias.name.split(".")[0]
                if root in _ENTROPY_MODULES:
                    findings.append(
                        self.finding(
                            ctx,
                            stmt,
                            f"import of {root!r} in a scoring module; "
                            "determinism forbids entropy sources here",
                        )
                    )
        elif isinstance(stmt, ast.ImportFrom):
            root = (stmt.module or "").split(".")[0]
            if root in _ENTROPY_MODULES:
                findings.append(
                    self.finding(
                        ctx,
                        stmt,
                        f"import from {root!r} in a scoring module; "
                        "determinism forbids entropy sources here",
                    )
                )
            elif root == "time" and any(a.name == "time" for a in stmt.names):
                findings.append(
                    self.finding(
                        ctx,
                        stmt,
                        "from time import time in a scoring module; use "
                        "perf_counter/monotonic for timing",
                    )
                )

    def _check_scope(
        self,
        ctx: FileContext,
        body: list[ast.stmt],
        findings: list[Finding],
    ) -> None:
        scope = _Scope(self, ctx)
        scope.findings = findings
        for stmt in body:
            scope.visit(stmt)
