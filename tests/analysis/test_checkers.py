"""Per-rule fixture tests: each custom rule is demonstrated by a
positive fixture (the test fails if the checker is removed), a
suppressed variant, and a clean variant."""

import pathlib

import pytest

from repro.analysis import ALL_CHECKERS, lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

RULES = [
    "determinism",
    "mmap-discipline",
    "float-equality",
    "section-registry",
]

_FIXTURE_STEM = {
    "determinism": "determinism",
    "mmap-discipline": "mmap",
    "float-equality": "floateq",
    "section-registry": "sections",
}


def _lint_fixture(name: str):
    path = FIXTURES / name
    return lint_source(path, path.read_text(encoding="utf-8"), ALL_CHECKERS)


def test_rule_names_registered():
    assert sorted(c.rule for c in ALL_CHECKERS) == sorted(RULES)


@pytest.mark.parametrize("rule", RULES)
def test_violation_fixture_is_caught(rule):
    result = _lint_fixture(f"{_FIXTURE_STEM[rule]}_violation.py")
    hits = [f for f in result.findings if f.rule == rule]
    assert hits, f"{rule}: violation fixture produced no findings"
    for finding in hits:
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule", RULES)
def test_suppressed_fixture_is_silent(rule):
    result = _lint_fixture(f"{_FIXTURE_STEM[rule]}_suppressed.py")
    assert [f for f in result.findings if f.rule == rule] == []
    assert result.suppressed > 0


@pytest.mark.parametrize("rule", RULES)
def test_clean_fixture_is_clean(rule):
    result = _lint_fixture(f"{_FIXTURE_STEM[rule]}_clean.py")
    assert result.findings == []
    assert result.suppressed == 0


def test_determinism_catches_every_seeded_class():
    result = _lint_fixture("determinism_violation.py")
    messages = " ".join(f.message for f in result.findings)
    assert "unordered set expression" in messages
    assert "materializes" in messages
    assert "import of 'random'" in messages
    assert "entropy" in messages


def test_determinism_covers_text_analysis():
    # analysis output order reaches postings order and snapshot bytes, so
    # the rule covers repro.textproc (and repro.entity) like repro.index;
    # the baselines' float sums run in collection order and feed a
    # pinned table, so it covers repro.baselines too
    path = FIXTURES / "determinism_violation.py"
    header, body = path.read_text(encoding="utf-8").split("\n", 1)
    assert header == "# repro: lint-module[repro.index.fixture_determinism]"
    for module in (
        "repro.textproc.fixture_determinism",
        "repro.entity.fixture_determinism",
        "repro.baselines.fixture_determinism",
    ):
        source = f"# repro: lint-module[{module}]\n{body}"
        result = lint_source(path, source, ALL_CHECKERS)
        assert [f for f in result.findings if f.rule == "determinism"], module


def test_mmap_rule_separates_view_and_column_subrules():
    result = _lint_fixture("mmap_violation.py")
    messages = [f.message for f in result.findings]
    assert any("memoryview" in m or "mapped" in m for m in messages)
    assert any("column attribute" in m for m in messages)


def test_mmap_rule_guards_evidence_columns():
    # the fold's evidence columns are compiled columns too: rebinding
    # them outside construction is a finding, compiling or adopting them
    # in __init__ (a segment's one constructor) and reading them are not
    path = FIXTURES / "mmap_violation.py"
    source = path.read_text(encoding="utf-8")
    result = lint_source(path, source, ALL_CHECKERS)
    lines = source.splitlines()
    flagged = {
        lines[f.line - 1].strip().split("  #")[0]
        for f in result.findings
        if f.rule == "mmap-discipline"
    }
    assert "self._evidence_cols = ()" in flagged
    assert _lint_fixture("mmap_clean.py").findings == []


def test_floateq_exempts_zero_sentinel():
    # the clean fixture contains `score == 0.0` and `tf == 0`
    result = _lint_fixture("floateq_clean.py")
    assert result.findings == []


def test_sections_rule_names_the_registry():
    result = _lint_fixture("sections_violation.py")
    assert all(
        "repro.storage.sections" in f.message
        for f in result.findings
        if f.rule == "section-registry"
    )


def test_mmap_rule_taints_numpy_views_of_mapped_sections():
    # np.frombuffer over a mapped section (and any slice of it) is a view:
    # item, augmented and in-place writes through it are findings, while
    # the clean fixture's .copy() and fresh np.zeros arrays are not
    path = FIXTURES / "mmap_violation.py"
    source = path.read_text(encoding="utf-8")
    result = lint_source(path, source, ALL_CHECKERS)
    lines = source.splitlines()
    start = lines.index("def tamper_numpy(sections) -> None:") + 1
    flagged = {
        lines[f.line - 1].strip().split("  #")[0]
        for f in result.findings
        if f.rule == "mmap-discipline" and f.line > start
    }
    assert {
        "column[0] = 1",
        "column[1] += 2",
        "head.fill(0)",
        "head += 1",
    } <= flagged
