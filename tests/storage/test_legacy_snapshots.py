"""Snapshots written by earlier releases: which load, and which are refused.

Three legacy layouts are no longer readable; loading any of them must
fail with :class:`StorageFormatError` naming the layout and pointing to
a rebuild with ``repro index``. Their fixtures were saved from
``ExpertFinder.from_stream`` over ``stream_resources(stream_candidates(5),
40, seed=7)`` with the default analyzer and ``FinderConfig()``:

* ``fixtures/legacy-v3-monolithic`` — by the last release with the
  monolithic layout (commit 528fac0): a v3 generation holding
  ``meta.jsonl`` (``index_mode: "monolithic"``), ``index.bin`` and the
  compiled ``engine.bin``;
* ``fixtures/legacy-v2-monolithic`` — the flat jsonl layout
  (``term_index`` / ``entity_index`` / ``evidence`` files, no
  ``CURRENT``);
* ``fixtures/legacy-v3-sharded`` — by the last release with candidate
  sharding (commit 4ae4aed), with ``shards=2``: ``shards.jsonl``,
  ``stats.bin``, ``evidence.bin`` and one ``shard-NNNN.bin`` per
  candidate shard.

Two older generations of the current layout still load:

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
from tests.oracle import oracle_experts

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
WINDOWS = (100, 3, 0.5, None)

_CANDIDATES = stream_candidates(5)
_NEEDS = stream_queries(12, seed=7)


@pytest.fixture(scope="module")
def analyzer():
    return default_analyzer()


def _copy(name, tmp_path):
    directory = tmp_path / name
    shutil.copytree(FIXTURES / name, directory)
    return directory


def test_monolithic_v3_generation_is_refused_with_a_rebuild_hint(
    analyzer, tmp_path
):
    directory = _copy("legacy-v3-monolithic", tmp_path)
    with pytest.raises(StorageFormatError, match="with `repro index`$") as err:
        ExpertFinder.load(directory, analyzer)
    assert str(directory) in str(err.value)
    assert "monolithic" in str(err.value)


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
