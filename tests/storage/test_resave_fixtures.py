"""Re-saves reproduce generations written by an earlier release, byte for byte.

Both fixtures were saved by commit f0ffb4b, the last release whose
segments kept posting-object indexes and evidence tuples beside their
columns, from one seeded stream: ``stream_resources(stream_candidates(5),
67, seed=22)`` with the default analyzer and ``FinderConfig()``.

* ``fixtures/v3-grown`` — a ``from_stream`` cold build of the first 20
  events with ``seal_threshold=4``, then the other 47 observed in order.
  Eleven seals and two tiered merges leave six segments (ids 0, 5, 10,
  11, 12, 13) and three buffered resources. Events 17, 47 and 65 are
  non-English, so the base segment, the second merged segment and the
  buffer each hold an evidence-only resource;
* ``fixtures/v3-grown-compacted`` — ``v3-grown`` loaded, then
  ``compact(full=True)`` (the buffer seals as segment 14, and every
  segment merges into segment 15), then saved.

A loaded finder keeps only columns, so these tests pin the column
writer and the column merge to what the posting-object code wrote; the
rebuild test pins a cold build, and the observes after it, as well, and
the adopted-buffer test pins a loaded buffer that keeps growing.
"""

import pathlib
import shutil

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.synthetic.dataset import default_analyzer
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources
from tests.oracle import oracle_experts

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GROWN = "v3-grown"
COMPACTED = "v3-grown-compacted"
WINDOWS = (100, 3, 0.5, None)

_CANDIDATES = stream_candidates(5)
_EVENTS = list(stream_resources(_CANDIDATES, 67, seed=22))
_NEEDS = stream_queries(12, seed=7)


@pytest.fixture(scope="module")
def analyzer():
    return default_analyzer()


@pytest.fixture(scope="module")
def fresh(analyzer):
    """The fixture's events built by the current code in one cold build;
    the oracle ranks over it."""
    return ExpertFinder.from_stream(_CANDIDATES, _EVENTS, analyzer, FinderConfig())


def _files(directory):
    gen = directory / (directory / "CURRENT").read_text().splitlines()[1]
    return {path.name: path.read_bytes() for path in sorted(gen.iterdir())}


def _copy(name, tmp_path):
    directory = tmp_path / name
    shutil.copytree(FIXTURES / name, directory)
    return directory


def test_the_grown_fixture_has_the_shape_it_pins(analyzer, tmp_path):
    stats = ExpertFinder.load(_copy(GROWN, tmp_path), analyzer).index_stats
    assert stats.segments == 6 and stats.buffered == 3
    assert stats.resources == len(_EVENTS)
    assert stats.documents == len(_EVENTS) - 3  # three evidence-only events
    assert [i for i, event in enumerate(_EVENTS) if len(event) == 4] == [17, 47, 65]


def test_the_grown_fixture_rebuilds_byte_for_byte(analyzer, tmp_path):
    # the fixture's own recipe, run by the current code: pins the cold
    # build's fill path, and the seals and merges after it, to the bytes
    # the earlier release wrote
    finder = ExpertFinder.from_stream(
        _CANDIDATES, _EVENTS[:20], analyzer, FinderConfig(), seal_threshold=4
    )
    for node_id, text, supporters, *language in _EVENTS[20:]:
        finder.observe(
            node_id, text, supporters, language=language[0] if language else None
        )
    finder.save(tmp_path / "rebuilt")
    assert _files(tmp_path / "rebuilt") == _files(FIXTURES / GROWN)


def _observe(finder, events):
    for node_id, text, supporters, *language in events:
        finder.observe(
            node_id, text, supporters, language=language[0] if language else None
        )


def test_an_adopted_buffer_grows_and_seals_byte_for_byte(analyzer, tmp_path):
    # the fixture's three buffered resources are adopted as columns at
    # load; six more observes cross two seals and two merges and leave
    # one buffered resource, and every file must equal what a finder
    # that was never saved writes after the same observes
    events = list(stream_resources(_CANDIDATES, len(_EVENTS) + 6, seed=22))
    assert events[: len(_EVENTS)] == _EVENTS
    loaded = ExpertFinder.load(_copy(GROWN, tmp_path), analyzer)
    _observe(loaded, events[len(_EVENTS) :])
    loaded.save(tmp_path / "grown")
    never_saved = ExpertFinder.from_stream(
        _CANDIDATES, events[:20], analyzer, FinderConfig(), seal_threshold=4
    )
    _observe(never_saved, events[20:])
    never_saved.save(tmp_path / "never-saved")
    stats = loaded.index_stats
    assert (stats.seals, stats.compactions, stats.buffered) == (2, 2, 1)
    assert _files(tmp_path / "grown") == _files(tmp_path / "never-saved")


@pytest.mark.parametrize("name", [GROWN, COMPACTED])
def test_load_then_save_reproduces_every_file(name, analyzer, tmp_path):
    loaded = ExpertFinder.load(_copy(name, tmp_path), analyzer)
    loaded.save(tmp_path / "resaved")
    assert _files(tmp_path / "resaved") == _files(FIXTURES / name)


def test_full_compaction_then_save_reproduces_the_sibling(analyzer, tmp_path):
    loaded = ExpertFinder.load(_copy(GROWN, tmp_path), analyzer)
    assert loaded.segmented_index.compact(full=True) == 1
    loaded.save(tmp_path / "compacted")
    assert _files(tmp_path / "compacted") == _files(FIXTURES / COMPACTED)


@pytest.mark.parametrize("name", [GROWN, COMPACTED])
def test_rankings_equal_the_oracle(name, analyzer, fresh, tmp_path):
    loaded = ExpertFinder.load(_copy(name, tmp_path), analyzer)
    ranked = 0
    for need in _NEEDS:
        for window in WINDOWS:
            expected = oracle_experts(fresh, need, window=window)
            assert loaded.find_experts(need, window=window) == expected
            assert oracle_experts(loaded, need, window=window) == expected
            ranked += bool(expected)
    assert ranked  # the needs actually match the fixture collection
