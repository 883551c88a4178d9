"""``float-equality`` — no exact ``==``/``!=`` between float scores.

Two float scores that reach the same mathematical value through
different operation orders (say, a bound summed from per-item maxima
and the evaluated posting fold) can differ at the ULP level, so an
exact ``==`` between computed scores is wrong unless both sides came
out of the same operations. The query path avoids it: it orders scores
only through the total ``(-score, doc_id)`` key, and its per-segment
cut compares each score with the cut-th best of the same array.

Inside ``repro.index``/``repro.core`` the rule flags ``==``/``!=``
where either side is a nonzero float literal, or where both sides are
computed float expressions (arithmetic over floats, float constants,
or ``float(...)``-style producers). Comparison against the literal
``0.0`` stays allowed: it is the codebase's exact sentinel — the irf
of an unseen term is exactly ``0.0``, never approximately so.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Checker, FileContext
from .findings import Finding

_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_FLOAT_PRODUCERS = {"float", "fsum", "sqrt", "log", "exp", "pow"}


def _is_zero_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


def _is_nonzero_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_nonzero_float_literal(node.operand)
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != 0.0
    )


def _is_floaty(node: ast.expr) -> bool:
    """A computed float expression: arithmetic, float literals, or a
    call to a known float producer."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITHMETIC):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floaty(node.operand)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        return name in _FLOAT_PRODUCERS
    return False


class FloatEqualityChecker(Checker):
    rule = "float-equality"
    description = (
        "exact ==/!= between computed float scores; compare with an "
        "ordering or math.isclose (comparison to the 0.0 sentinel is exempt)"
    )
    scope = ("repro.index", "repro.core")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = sides[i], sides[i + 1]
                if _is_zero_literal(left) or _is_zero_literal(right):
                    continue  # the exact-0.0 sentinel idiom (unseen-term irf)
                if _is_nonzero_float_literal(left) or _is_nonzero_float_literal(
                    right
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "exact comparison against a nonzero float literal; "
                        "float scores must be compared with an ordering "
                        "or math.isclose",
                    )
                elif _is_floaty(left) and _is_floaty(right):
                    yield self.finding(
                        ctx,
                        node,
                        "exact ==/!= between two computed float "
                        "expressions; a different operation order differs "
                        "at the ULP level — use an ordering or "
                        "math.isclose",
                    )
