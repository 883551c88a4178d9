"""Repo-specific static analysis (``repro lint``).

Four AST-based rules guard the invariants the runtime equivalence
tests enforce dynamically — catching whole bug classes at review time
instead of when a benchmark trips:

========================  ======================================================
``determinism``           no unordered iteration / entropy in scoring paths
``mmap-discipline``       mapped sections are read-only; columns immutable
``float-equality``        float scores compare by ordering, never ``==``
``section-registry``      layout names come from ``repro.storage.sections``
========================  ======================================================

See ``docs/static_analysis.md`` for the full rule catalog, the
suppression syntax (``# repro: lint-ok[rule]``), and how to add a
checker.
"""

from __future__ import annotations

from .base import Checker, FileContext, resolve_module
from .determinism import DeterminismChecker
from .engine import (
    DEFAULT_EXCLUDE,
    RULESET_VERSION,
    iter_python_files,
    lint_paths,
    lint_source,
)
from .findings import FileResult, Finding, LintReport
from .floateq import FloatEqualityChecker
from .mmapdiscipline import MmapDisciplineChecker
from .registry import SectionRegistryChecker

#: every registered rule, in report order
ALL_CHECKERS: tuple[Checker, ...] = (
    DeterminismChecker(),
    MmapDisciplineChecker(),
    FloatEqualityChecker(),
    SectionRegistryChecker(),
)

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "DEFAULT_EXCLUDE",
    "DeterminismChecker",
    "FileContext",
    "FileResult",
    "Finding",
    "FloatEqualityChecker",
    "LintReport",
    "MmapDisciplineChecker",
    "RULESET_VERSION",
    "SectionRegistryChecker",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "resolve_module",
]
