"""The documented public API surface must exist and stay importable."""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: the object reference path of Eq. 1–3 and its column decoders, which
#: live beside the oracle under tests/
REFERENCE_NAMES = frozenset({
    "CollectionStatistics",
    "EntityIndex",
    "EntityPosting",
    "ExpertRanker",
    "InvertedIndex",
    "Posting",
    "ResourceMatch",
    "VectorSpaceRetriever",
    "apply_window",
    "evidence_of",
    "evidence_rows",
})

PUBLIC_MODULES = [
    "repro",
    "repro.baselines",
    "repro.cli",
    "repro.core",
    "repro.crowd",
    "repro.entity",
    "repro.evaluation",
    "repro.experiments",
    "repro.extraction",
    "repro.index",
    "repro.socialgraph",
    "repro.storage",
    "repro.synthetic",
    "repro.textproc",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve(module_name):
    """Every name in a package's __all__ must be importable from it."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_top_level_exports():
    import repro

    assert repro.__version__ == "1.0.0"
    for name in ("ExpertFinder", "FinderConfig", "build_dataset", "DatasetScale",
                 "Platform", "ExpertiseNeed", "ExpertScore"):
        assert hasattr(repro, name)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_modules_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 40


def test_doctests_pass():
    """Run the doctests embedded in the core public modules."""
    import doctest

    for module_name in (
        "repro.textproc.sanitizer",
        "repro.textproc.tokenizer",
        "repro.textproc.stemmer",
        "repro.textproc.stopwords",
        "repro.core.scoring",
        "repro.evaluation.metrics",
        "repro.crowd.jury",
        "repro.evaluation.significance",
        "repro.synthetic.queries",
        "repro.synthetic.seeds",
    ):
        module = importlib.import_module(module_name)
        failures, _ = doctest.testmod(module)
        assert failures == 0, f"doctest failures in {module_name}"


def _src_nodes():
    """Every AST node of every module under src/repro, with its place."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.relative_to(SRC.parent)}:{getattr(node, 'lineno', 0)}", node


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module or ""]
    return []


def test_src_never_imports_tests():
    """tests/ holds the oracle and the reference path, and an installed
    package ships without it: an import of it from src/ would pass
    every test here and break the installed package."""
    offenders = [
        where
        for where, node in _src_nodes()
        if any(name.split(".")[0] == "tests" for name in _imported_modules(node))
    ]
    assert offenders == []


def _bound_names(node):
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return [node.name]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_src_holds_one_eq1_to_3_path():
    """src/ neither defines nor imports the reference path: the served
    segmented index is its one Eq. 1–3 implementation."""
    offenders = [
        f"{where}: {name}"
        for where, node in _src_nodes()
        for name in _bound_names(node)
        if name in REFERENCE_NAMES
    ]
    assert offenders == []


#: module (relative to src/repro) → the Table 1 traversal and node
#: analysis it may import: their own packages, the finder's one build
#: path, and the dataset's one corpus analysis
TRAVERSAL_IMPORTERS = {
    "ResourceGatherer": {
        "socialgraph/distance.py",
        "socialgraph/__init__.py",
        "core/expert_finder.py",
    },
    "CorpusAnalyzer": {
        "extraction/crawler.py",
        "extraction/__init__.py",
        "core/expert_finder.py",
        "synthetic/dataset.py",
    },
}


def test_only_the_finder_walks_and_analyzes_the_graph():
    """The baselines and the experiments read a finder's collection (or
    the dataset's corpus); only ExpertFinder.build gathers Table 1
    evidence and analyzes graph nodes, so no second path can drift."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            offenders += [
                f"{module}:{node.lineno}: {name}"
                for name in names
                if module not in TRAVERSAL_IMPORTERS.get(name, {module})
            ]
    assert offenders == []
    allowed = set().union(*TRAVERSAL_IMPORTERS.values())
    assert all((SRC / module).is_file() for module in sorted(allowed))
    assert not any(m.startswith(("baselines/", "experiments/")) for m in allowed)
