"""Snapshots written before every finder became a segmented index.

The fixtures were saved by the last release with the monolithic layout
(commit 528fac0), from ``ExpertFinder.from_stream`` over
``stream_resources(stream_candidates(5), 40, seed=7)`` with the default
analyzer and ``FinderConfig()``:

* ``fixtures/legacy-v3-monolithic`` — a v3 generation holding
  ``meta.jsonl`` (``index_mode: "monolithic"``), ``index.bin`` and the
  compiled ``engine.bin``. It must load as one sealed segment and rank
  exactly like a fresh build of the same events — on the oracle
  (``tests/oracle.py``) and both fast engines — and a re-save after an
  observe must write the segmented layout;
* ``fixtures/legacy-v2-monolithic`` — the flat jsonl layout
  (``term_index`` / ``entity_index`` / ``evidence`` files), which is no
  longer readable: loading it must fail with a pointer to the rebuild.

``fixtures/legacy-v3-sharded`` was saved from the same stream with
``shards=2`` by the last release with candidate sharding (commit
4ae4aed): ``shards.jsonl``, ``stats.bin``, ``evidence.bin`` and one
``shard-NNNN.bin`` per candidate shard. It is no longer readable either;
loading it must fail with a pointer to ``repro index --shards``.
"""

import pathlib
import shutil

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.storage.jsonl import StorageFormatError
from repro.synthetic.dataset import default_analyzer
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources
from tests.oracle import ORACLE, oracle_experts, ranked_on

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
LEGACY = ("legacy-v3-monolithic",)
ENGINES = (ORACLE, "columnar", "columnar-pruned")
WINDOWS = (100, 3, 0.5, None)

_CANDIDATES = stream_candidates(5)
_NEEDS = stream_queries(12, seed=7)


@pytest.fixture(scope="module")
def analyzer():
    return default_analyzer()


@pytest.fixture(scope="module")
def fresh(analyzer):
    """The same events built by the current code; the oracle ranks
    over it."""
    return ExpertFinder.from_stream(
        _CANDIDATES,
        stream_resources(_CANDIDATES, 40, seed=7),
        analyzer,
        FinderConfig(),
    )


def _copy(name, tmp_path):
    directory = tmp_path / name
    shutil.copytree(FIXTURES / name, directory)
    return directory


@pytest.mark.parametrize("name", LEGACY)
def test_loads_as_one_segment(name, analyzer, fresh, tmp_path):
    loaded = ExpertFinder.load(_copy(name, tmp_path), analyzer)
    stats = loaded.index_stats
    assert (stats.segments, stats.buffered) == (1, 0)
    assert loaded.indexed_resources == fresh.indexed_resources
    assert stats.resources == len(fresh.evidence_of)  # evidence-only included
    assert dict(loaded.evidence_counts) == dict(fresh.evidence_counts)
    assert {doc: list(map(tuple, rows)) for doc, rows in loaded.evidence_of.items()} \
        == {doc: list(map(tuple, rows)) for doc, rows in fresh.evidence_of.items()}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", LEGACY)
def test_ranks_like_a_fresh_build(name, engine, analyzer, fresh, tmp_path):
    loaded = ExpertFinder.load(_copy(name, tmp_path), analyzer)
    ranked = 0
    for need in _NEEDS:
        for window in WINDOWS:
            expected = oracle_experts(fresh, need, window=window)
            assert ranked_on(loaded, engine, need, window=window) == expected
            ranked += bool(expected)
    assert ranked  # the needs actually match the fixture collection


@pytest.mark.parametrize("name", LEGACY)
def test_observe_then_resave_writes_segmented_layout(name, analyzer, fresh, tmp_path):
    directory = _copy(name, tmp_path)
    loaded = ExpertFinder.load(directory, analyzer)
    event = ("late:1", "open water swimming race report", [(_CANDIDATES[0], 1)])
    assert loaded.observe(*event, language="en")
    loaded.save(directory)

    gen = directory / (directory / "CURRENT").read_text().splitlines()[1]
    names = {p.name for p in gen.iterdir()}
    assert {"meta.jsonl", "segments.jsonl", "segment-0000.bin", "buffer.bin"} <= names
    assert not names & {"index.bin", "engine.bin"}
    assert '"index_mode":"segmented"' in (gen / "meta.jsonl").read_text()

    reloaded = ExpertFinder.load(directory, analyzer)
    oracle = ExpertFinder.from_stream(
        _CANDIDATES,
        stream_resources(_CANDIDATES, 40, seed=7),
        analyzer,
        FinderConfig(),
    )
    oracle.observe(*event, language="en")
    for engine in ("columnar", "columnar-pruned"):
        reloaded.engine = engine
        for need in _NEEDS:
            assert reloaded.find_experts(need) == oracle_experts(oracle, need)


def test_flat_v2_snapshot_is_refused_with_a_rebuild_hint(analyzer, tmp_path):
    directory = _copy("legacy-v2-monolithic", tmp_path)
    with pytest.raises(StorageFormatError, match="repro index") as err:
        ExpertFinder.load(directory, analyzer)
    assert str(directory) in str(err.value)
    assert "v2" in str(err.value)


def test_candidate_sharded_snapshot_is_refused_with_a_rebuild_hint(analyzer, tmp_path):
    directory = _copy("legacy-v3-sharded", tmp_path)
    with pytest.raises(StorageFormatError, match="repro index --shards 2") as err:
        ExpertFinder.load(directory, analyzer)
    assert str(directory) in str(err.value)
