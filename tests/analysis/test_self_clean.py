"""Meta-tests: the repo is clean under its own lint rules, and seeded
violations into a scratch copy of ``repro.index.inverted`` (a module both
the determinism and the mmap-discipline rule cover) are caught."""

import pathlib
import shutil

from repro.analysis import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
INVERTED = REPO_ROOT / "src" / "repro" / "index" / "inverted.py"


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
    # the one reasoned determinism suppression (vsm emits into a
    # consumer that re-sorts with a total key); grow this list only with
    # a reason next to the pragma
    report = lint_paths([REPO_ROOT / "src"])
    assert report.suppressed == 1


class TestSeededViolations:
    """Copy ``repro.index.inverted`` into a scratch tree (so it still
    resolves as a ``repro.index`` module) and seed one violation of the
    determinism and the mmap-discipline rule; ``repro lint`` must catch
    both."""

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
