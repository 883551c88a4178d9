"""Meta-tests: the repo is clean under its own lint rules, the
reference path under ``tests/reference/`` stays in the scoring rules'
scope, and seeded violations into a scratch copy of its inverted index
(a module both the determinism and the mmap-discipline rule cover) are
caught."""

import pathlib
import shutil

import pytest

from repro.analysis import ALL_CHECKERS, FileContext, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
REFERENCE = REPO_ROOT / "tests" / "reference"
INVERTED = REFERENCE / "inverted.py"
SEGMENTS = REPO_ROOT / "src" / "repro" / "index" / "segments.py"


def test_src_is_clean():
    report = lint_paths([REPO_ROOT / "src"])
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_tests_and_benchmarks_are_clean():
    paths = [REPO_ROOT / "tests"]
    benchmarks = REPO_ROOT / "benchmarks"
    if benchmarks.exists():
        paths.append(benchmarks)
    report = lint_paths(paths)
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_src_suppressions_stay_reviewed():
    # src/ carries none; the one reasoned determinism suppression is the
    # reference retriever's (vsm emits into a consumer that re-sorts
    # with a total key). Grow either count only with a reason next to
    # the pragma
    assert lint_paths([REPO_ROOT / "src"]).suppressed == 0
    assert lint_paths([REFERENCE]).suppressed == 1


@pytest.mark.parametrize(
    "path",
    sorted(p for p in REFERENCE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_reference_modules_stay_in_scoring_scope(path):
    # outside src/repro a file resolves to no module, and the scoped
    # rules would skip it silently: each reference module's
    # lint-module header keeps every rule that covers the served path
    assert _rules(path) == _rules(SEGMENTS)


def _rules(path):
    ctx = FileContext.parse(path, path.read_text(encoding="utf-8"))
    return {checker.rule for checker in ALL_CHECKERS if checker.applies_to(ctx)}


class TestSeededViolations:
    """Copy the reference inverted index (its header places it in the
    ``repro.index`` scope) into a scratch tree and seed one violation of
    the determinism and the mmap-discipline rule; ``repro lint`` must
    catch both."""

    def _scratch_copy(self, tmp_path) -> pathlib.Path:
        scratch = tmp_path / "repro" / "index"
        scratch.mkdir(parents=True)
        target = scratch / "inverted.py"
        shutil.copy(INVERTED, target)
        return target

    def test_unmodified_copy_is_clean(self, tmp_path):
        target = self._scratch_copy(tmp_path)
        report = lint_paths([target])
        # the pristine copy carries no suppressions and no findings
        assert report.findings == []

    def test_seeded_violations_are_caught(self, tmp_path):
        target = self._scratch_copy(tmp_path)
        source = target.read_text(encoding="utf-8")

        # determinism: materialize an index's doc-id frozenset
        # without sorting it
        source += (
            "\n\ndef _doc_order(term_index):\n"
            "    return list(term_index.doc_ids())\n"
        )

        # mmap-discipline: poke a mapped section in place
        source += (
            "\n\ndef _tamper(mapped, name):\n"
            "    view = mapped.array(name)\n"
            "    view[0] = 0\n"
        )

        target.write_text(source, encoding="utf-8")
        report = lint_paths([target])
        rules = {f.rule for f in report.findings}
        assert {"determinism", "mmap-discipline"} <= rules
