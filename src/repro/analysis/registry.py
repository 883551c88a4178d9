"""``section-registry`` — layout names come from one module.

The v3 snapshot layout is a contract between independent writer and
reader paths (segment and buffer containers, manifests, pruning). A
section or file name spelled ad hoc in one of them — ``"term#of"`` for
``"term#off"`` — produces a snapshot the reader rejects, or silently
pairs a column with the wrong offsets. All names
therefore live in :mod:`repro.storage.sections`, and this rule flags,
inside the storage/index/core packages:

* string literals shaped like section names (``prefix#column``);
* literals naming registered layout files (``stats.bin``, ``CURRENT``,
  ``segments.jsonl``, …) or shaped like container/flat-file names
  (``*.bin``, ``*.jsonl``, ``*.jsonl.gz``);
* f-strings whose constant parts smuggle a ``#column`` suffix or a
  container extension past the registry (``f"{name}#off"``).

Docstrings are exempt; :mod:`repro.storage.sections` itself is exempt.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.storage.sections import REGISTERED_FILES

from .base import Checker, FileContext
from .findings import Finding

_SECTION_SHAPE = re.compile(r"^[a-z]+#[a-z]+$")
_FILE_SHAPE = re.compile(r"^[A-Za-z0-9_.{}:-]*\.(bin|jsonl|jsonl\.gz)$")
_FSTRING_SMUGGLE = re.compile(r"#[a-z]+|\.(bin|jsonl)\b")


def _docstring_nodes(tree: ast.Module) -> set[int]:
    """ids of Constant nodes serving as docstrings."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


class SectionRegistryChecker(Checker):
    rule = "section-registry"
    description = (
        "snapshot section/file names must come from repro.storage.sections, "
        "not ad-hoc literals"
    )
    scope = (
        "repro.storage.binary",
        "repro.storage.snapshot",
        "repro.index",
        "repro.core",
    )
    exempt = ("repro.storage.sections",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        docstrings = _docstring_nodes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) in docstrings:
                    continue
                value = node.value
                if _SECTION_SHAPE.match(value):
                    yield self.finding(
                        ctx,
                        node,
                        f"ad-hoc section-name literal {value!r}; use the "
                        "constant or helper in repro.storage.sections",
                    )
                elif value in REGISTERED_FILES:
                    yield self.finding(
                        ctx,
                        node,
                        f"ad-hoc layout file-name literal {value!r}; use "
                        "the constant in repro.storage.sections",
                    )
                elif _FILE_SHAPE.match(value):
                    yield self.finding(
                        ctx,
                        node,
                        f"container/flat-file name literal {value!r} "
                        "bypasses the repro.storage.sections registry",
                    )
            elif isinstance(node, ast.JoinedStr):
                for part in node.values:
                    if (
                        isinstance(part, ast.Constant)
                        and isinstance(part.value, str)
                        and _FSTRING_SMUGGLE.search(part.value)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"f-string builds a section/file name around "
                            f"{part.value!r}; use the helpers in "
                            "repro.storage.sections",
                        )
                        break
