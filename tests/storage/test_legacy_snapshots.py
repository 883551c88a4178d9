"""Snapshots written before every finder became a segmented index.

The fixtures were saved by the last release with the monolithic layout
(commit 528fac0), from ``ExpertFinder.from_stream`` over
``stream_resources(stream_candidates(5), 40, seed=7)`` with the default
analyzer and ``FinderConfig()``:

* ``fixtures/legacy-v3-monolithic`` — a v3 generation holding
  ``meta.jsonl`` (``index_mode: "monolithic"``), ``index.bin`` and the
  compiled ``engine.bin``. It must load as one sealed segment and rank
  exactly like a fresh build of the same events — on the oracle
  (``tests/oracle.py``) and served — and a re-save after an observe must
  write the segmented layout;
* ``fixtures/legacy-v2-monolithic`` — the flat jsonl layout
  (``term_index`` / ``entity_index`` / ``evidence`` files), which is no
  longer readable: loading it must fail with a pointer to the rebuild.

``fixtures/legacy-v3-sharded`` was saved from the same stream with
``shards=2`` by the last release with candidate sharding (commit
4ae4aed): ``shards.jsonl``, ``stats.bin``, ``evidence.bin`` and one
``shard-NNNN.bin`` per candidate shard. It is no longer readable either;
loading it must fail with a pointer to ``repro index``.

``fixtures/v3-segmented-blocks`` was saved by the last release whose
sealed segments carried block-max sections (commit 05e5625): a
``from_stream`` cold build of ``stream_resources(stream_candidates(5),
46, seed=7)``'s first 40 events with ``seal_threshold=4``, then the
other six events observed in order (four seal a second segment, two stay
in the write buffer), saved with ``FinderConfig()``. Each
``segment-NNNN.bin`` holds ``blk#span`` and the ``term#``/``ent#``
``bid``/``bmax``/``blkoff``/``boff`` sections beside doc-sorted
columns. It must load, rank exactly like the oracle over the same
events, and re-save without any block section.

``fixtures/v3-resource-sharded`` was saved by the last release with
resource shards (commit 08ba235), from the same stream: a ``from_stream``
cold build of the first 40 events with ``shards=2``, then the other six
events observed in order (they stay in the write buffer), saved with
``FinderConfig()``. Its two segments are the two shard segments, and its
manifest header carries ``"shards": 2``. It must load as an ordinary
two-segment index, rank exactly like the oracle, and re-save without the
``shards`` key.
"""

import json
import pathlib
import shutil

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.storage.binary import MappedSections
from repro.storage.jsonl import StorageFormatError
from repro.synthetic.dataset import default_analyzer
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources
from tests.oracle import ORACLE, oracle_experts, ranked_on

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
LEGACY = ("legacy-v3-monolithic",)
ENGINES = (ORACLE, "columnar")
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
    with pytest.raises(StorageFormatError, match="rebuild it with `repro index`$") as err:
        ExpertFinder.load(directory, analyzer)
    assert str(directory) in str(err.value)


# -- a generation with block-max sections --------------------------------------

_BLOCKS = "v3-segmented-blocks"
#: the five window shapes of the query benchmark
_BLOCK_WINDOWS = (10, 5, 1000, 0.25, None)
_BLOCK_EVENTS = list(stream_resources(_CANDIDATES, 46, seed=7))


def _block_sections(container):
    """The block-max section names in one segment container."""
    mapped = MappedSections.open(container)
    try:
        return [
            name
            for name in mapped.names()
            if name == "blk#span"
            or name.rpartition("#")[2] in ("bid", "bmax", "blkoff", "boff")
        ]
    finally:
        mapped.close()


@pytest.fixture(scope="module")
def grown(analyzer):
    """The events of the block and the resource-sharded fixtures, built
    by the current code: the cold build, then the same observes (the
    oracle ranks over it; how a collection is segmented never moves a
    ranking)."""
    finder = ExpertFinder.from_stream(
        _CANDIDATES, _BLOCK_EVENTS[:40], analyzer, FinderConfig(), seal_threshold=4
    )
    for node_id, text, supporters, *rest in _BLOCK_EVENTS[40:]:
        finder.observe(node_id, text, supporters, language=rest[0] if rest else None)
    return finder


def test_block_sections_are_ignored_on_load(analyzer, grown, tmp_path):
    directory = _copy(_BLOCKS, tmp_path)
    gen = directory / "gen-0000001"
    assert all(_block_sections(path) for path in gen.glob("segment-*.bin"))
    loaded = ExpertFinder.load(directory, analyzer)
    stats = loaded.index_stats
    assert (stats.segments, stats.buffered) == (2, 2)
    assert stats.segment_docs == grown.index_stats.segment_docs
    ranked = 0
    for need in _NEEDS:
        for window in _BLOCK_WINDOWS:
            expected = oracle_experts(grown, need, window=window)
            assert loaded.find_experts(need, window=window) == expected
            assert oracle_experts(loaded, need, window=window) == expected
            ranked += bool(expected)
    assert ranked


def test_resave_of_a_block_generation_writes_no_block_section(
    analyzer, grown, tmp_path
):
    directory = _copy(_BLOCKS, tmp_path)
    ExpertFinder.load(directory, analyzer).save(directory)
    gen = directory / (directory / "CURRENT").read_text().splitlines()[1]
    assert gen.name != "gen-0000001"
    containers = sorted(gen.glob("*.bin"))
    assert [p.name for p in containers] == [
        "buffer.bin", "segment-0000.bin", "segment-0001.bin"
    ]
    assert [_block_sections(path) for path in containers] == [[], [], []]
    reloaded = ExpertFinder.load(directory, analyzer)
    for need in _NEEDS:
        for window in _BLOCK_WINDOWS:
            assert reloaded.find_experts(need, window=window) == (
                oracle_experts(grown, need, window=window)
            )


# -- a generation whose manifest names shard segments --------------------------

_SHARDED = "v3-resource-sharded"


def _manifest_header(gen):
    lines = (gen / "segments.jsonl").read_text().splitlines()
    return json.loads(lines[1])


def test_resource_sharded_generation_loads_as_segments(analyzer, grown, tmp_path):
    directory = _copy(_SHARDED, tmp_path)
    assert _manifest_header(directory / "gen-0000001")["shards"] == 2
    loaded = ExpertFinder.load(directory, analyzer)
    stats = loaded.index_stats
    assert (stats.segments, stats.buffered) == (2, 6)
    assert stats.documents == grown.index_stats.documents
    assert dict(loaded.evidence_counts) == dict(grown.evidence_counts)
    ranked = 0
    for need in _NEEDS:
        for window in WINDOWS:
            expected = oracle_experts(grown, need, window=window)
            assert loaded.find_experts(need, window=window) == expected
            assert oracle_experts(loaded, need, window=window) == expected
            ranked += bool(expected)
    assert ranked


def test_resave_of_a_resource_sharded_generation_drops_the_shards_key(
    analyzer, grown, tmp_path
):
    directory = _copy(_SHARDED, tmp_path)
    ExpertFinder.load(directory, analyzer).save(directory)
    gen = directory / (directory / "CURRENT").read_text().splitlines()[1]
    assert gen.name != "gen-0000001"
    header = _manifest_header(gen)
    assert header["type"] == "manifest" and "shards" not in header
    reloaded = ExpertFinder.load(directory, analyzer)
    assert reloaded.index_stats.segments == 2
    for need in _NEEDS:
        for window in WINDOWS:
            assert reloaded.find_experts(need, window=window) == (
                oracle_experts(grown, need, window=window)
            )
