"""Engine behavior: discovery, suppression plumbing, module
resolution, parse errors, and the per-file verdict cache."""

import json
import pathlib

import pytest

from repro.analysis import (
    ALL_CHECKERS,
    RULESET_VERSION,
    iter_python_files,
    lint_paths,
    lint_source,
    resolve_module,
)

VIOLATION = (
    "# repro: lint-module[repro.index.fake]\n"
    "def f(a: dict, b: dict) -> list:\n"
    "    return list(a.keys() | b.keys())\n"
)


class TestDiscovery:
    def test_iterates_sorted_py_files(self, tmp_path):
        for name in ("b.py", "a.py", "c.txt"):
            (tmp_path / name).write_text("x = 1\n")
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["a.py", "b.py"]

    def test_exclude_substring(self, tmp_path):
        nested = tmp_path / "fixtures"
        nested.mkdir()
        (nested / "bad.py").write_text("x = 1\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        found = [p.name for p in iter_python_files([tmp_path], ("fixtures",))]
        assert found == ["good.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files(["no/such/dir"]))

    def test_single_file_path(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert list(iter_python_files([target])) == [target]


class TestModuleResolution:
    def test_resolves_from_last_repro_component(self):
        path = pathlib.Path("src/repro/index/vsm.py")
        assert resolve_module(path) == "repro.index.vsm"

    def test_package_init_resolves_to_package(self):
        path = pathlib.Path("src/repro/analysis/__init__.py")
        assert resolve_module(path) == "repro.analysis"

    def test_outside_tree_resolves_to_none(self):
        assert resolve_module(pathlib.Path("tests/index/test_vsm.py")) is None

    def test_module_pragma_opts_in(self, tmp_path):
        target = tmp_path / "scratch.py"
        target.write_text(VIOLATION)
        report = lint_paths([target])
        assert [f.rule for f in report.findings] == ["determinism"]

    def test_without_pragma_scoped_rules_skip(self, tmp_path):
        target = tmp_path / "scratch.py"
        target.write_text(
            "def f(a: dict, b: dict) -> list:\n"
            "    return list(a.keys() | b.keys())\n"
        )
        assert lint_paths([target]).findings == []


class TestSuppression:
    def test_same_line_pragma(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text(
            "# repro: lint-module[repro.index.fake]\n"
            "def f(a: dict, b: dict) -> list:\n"
            "    return list(a.keys() | b.keys())"
            "  # repro: lint-ok[determinism] reason\n"
        )
        report = lint_paths([target])
        assert report.findings == []
        assert report.suppressed == 1

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text(
            "# repro: lint-module[repro.index.fake]\n"
            "def f(a: dict, b: dict) -> list:\n"
            "    return list(a.keys() | b.keys())"
            "  # repro: lint-ok[float-equality] wrong rule\n"
        )
        report = lint_paths([target])
        assert [f.rule for f in report.findings] == ["determinism"]


def test_parse_error_becomes_finding(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    report = lint_paths([target])
    assert [f.rule for f in report.findings] == ["parse"]


def test_findings_are_sorted_and_stable(tmp_path):
    target = tmp_path / "v.py"
    target.write_text(VIOLATION)
    result = lint_source(target, target.read_text(), ALL_CHECKERS)
    assert result.findings == sorted(result.findings)


class TestCache:
    def test_second_run_replays_from_cache(self, tmp_path):
        target = tmp_path / "v.py"
        target.write_text(VIOLATION)
        cache = tmp_path / "cache.json"
        first = lint_paths([target], cache_path=cache)
        assert first.files_cached == 0
        second = lint_paths([target], cache_path=cache)
        assert second.files_cached == 1
        assert second.findings == first.findings
        assert second.suppressed == first.suppressed

    def test_content_change_invalidates(self, tmp_path):
        target = tmp_path / "v.py"
        target.write_text(VIOLATION)
        cache = tmp_path / "cache.json"
        lint_paths([target], cache_path=cache)
        target.write_text("x = 1\n")
        report = lint_paths([target], cache_path=cache)
        assert report.files_cached == 0
        assert report.findings == []

    def test_ruleset_bump_invalidates(self, tmp_path):
        target = tmp_path / "v.py"
        target.write_text(VIOLATION)
        cache = tmp_path / "cache.json"
        lint_paths([target], cache_path=cache)
        payload = json.loads(cache.read_text())
        payload["ruleset"] = RULESET_VERSION - 1
        cache.write_text(json.dumps(payload))
        report = lint_paths([target], cache_path=cache)
        assert report.files_cached == 0
        assert [f.rule for f in report.findings] == ["determinism"]

    def test_corrupt_cache_is_ignored(self, tmp_path):
        target = tmp_path / "v.py"
        target.write_text(VIOLATION)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = lint_paths([target], cache_path=cache)
        assert [f.rule for f in report.findings] == ["determinism"]
        # and the run rewrote a valid cache
        assert json.loads(cache.read_text())["ruleset"] == RULESET_VERSION
