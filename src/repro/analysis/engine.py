"""The lint engine: file discovery, suppression, caching, reporting.

``lint_paths`` is the importable API behind ``repro lint``. For every
``.py`` file under the given paths it parses once, runs each
applicable checker (see :data:`ALL_CHECKERS` in the package root),
drops findings suppressed by ``# repro: lint-ok[rule]`` pragmas, and
aggregates a :class:`~repro.analysis.findings.LintReport`.

Caching is per file: a JSON map keyed by path holding the content
sha256 and the (pre-serialized) findings. A cache entry is replayed
only when both the content hash and :data:`RULESET_VERSION` match —
bump the version whenever a checker's behavior changes so stale
verdicts can't survive an upgrade.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .base import Checker, FileContext
from .findings import FileResult, Finding, LintReport

#: bump when any checker's behavior changes; invalidates every cache entry
RULESET_VERSION = 8

#: path substrings excluded by default — the lint test fixtures violate
#: rules on purpose, so ``repro lint tests`` must not trip over them
DEFAULT_EXCLUDE: tuple[str, ...] = ("tests/analysis/fixtures",)


def iter_python_files(
    paths: Sequence[str | Path],
    exclude: Sequence[str] = DEFAULT_EXCLUDE,
) -> Iterator[Path]:
    """Yield the ``.py`` files under *paths* in sorted order, skipping
    any whose path contains one of the *exclude* substrings."""
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates: Iterable[Path] = [root] if root.suffix == ".py" else []
        elif root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            raise FileNotFoundError(f"lint path does not exist: {root}")
        for path in candidates:
            posix = path.as_posix()
            if any(marker in posix for marker in exclude):
                continue
            if path not in seen:
                seen.add(path)
                yield path


def lint_source(
    path: Path,
    source: str,
    checkers: Sequence[Checker],
) -> FileResult:
    """Lint one file's *source*; parse errors become a ``parse`` finding."""
    result = FileResult(path=str(path))
    try:
        ctx = FileContext.parse(path, source)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
                rule="parse",
                message=f"file does not parse: {exc.msg}",
            )
        )
        return result
    for checker in checkers:
        if not checker.applies_to(ctx):
            continue
        for finding in checker.check(ctx):
            if ctx.is_suppressed(finding):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    result.findings.sort()
    return result


class _Cache:
    """Per-file verdict cache keyed by content sha256 + ruleset version."""

    def __init__(self, path: Path | None):
        self.path = path
        self.entries: dict[str, dict[str, object]] = {}
        self.dirty = False
        if path is not None and path.exists():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                data = {}
            if data.get("ruleset") == RULESET_VERSION:
                entries = data.get("files")
                if isinstance(entries, dict):
                    self.entries = entries

    def lookup(self, key: str, sha: str) -> FileResult | None:
        entry = self.entries.get(key)
        if not isinstance(entry, dict) or entry.get("sha") != sha:
            return None
        try:
            findings = [
                Finding(
                    path=str(f["path"]),
                    line=int(f["line"]),
                    col=int(f["col"]),
                    rule=str(f["rule"]),
                    message=str(f["message"]),
                )
                for f in entry["findings"]  # type: ignore[union-attr]
            ]
            suppressed = int(entry["suppressed"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return None
        return FileResult(
            path=key, findings=findings, suppressed=suppressed, from_cache=True
        )

    def store(self, key: str, sha: str, result: FileResult) -> None:
        self.entries[key] = {
            "sha": sha,
            "findings": [f.to_json() for f in result.findings],
            "suppressed": result.suppressed,
        }
        self.dirty = True

    def save(self) -> None:
        if self.path is None or not self.dirty:
            return
        payload = {"ruleset": RULESET_VERSION, "files": self.entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )


def lint_paths(
    paths: Sequence[str | Path],
    *,
    checkers: Sequence[Checker] | None = None,
    cache_path: str | Path | None = None,
    exclude: Sequence[str] = DEFAULT_EXCLUDE,
) -> LintReport:
    """Lint every Python file under *paths* and return the report."""
    if checkers is None:
        from . import ALL_CHECKERS

        checkers = ALL_CHECKERS
    cache = _Cache(Path(cache_path) if cache_path is not None else None)
    report = LintReport()
    for path in iter_python_files(paths, exclude):
        source = path.read_text(encoding="utf-8")
        key = str(path)
        sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        cached = cache.lookup(key, sha)
        if cached is not None:
            report.results.append(cached)
            continue
        result = lint_source(path, source, checkers)
        cache.store(key, sha, result)
        report.results.append(result)
    cache.save()
    return report
