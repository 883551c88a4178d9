"""Tests for resource-sharded scatter-gather query execution.

A ``shards=K`` finder seals its cold build as K shard segments of one
:class:`~repro.index.segments.SegmentedIndex`, split by resource. The
load-bearing property is *shard-count invariance*: for any shard count
K, a sharded finder must rank byte-identically to the
oracle (``tests/oracle.py``) over the unsharded build of the same
stream, and so must the oracle over the sharded finder's own merged
segments — including after streaming observes, seals and compactions
between queries, and whether the shard segments are scored serially in
the coordinator or by the worker pool.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.parallel import build_indexes
from repro.index.sharded import ShardedQueryExecutor, split_by_resource
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources
from tests.oracle import ORACLE, oracle_experts, ranked_on

_SHARD_COUNTS = (1, 2, 3, 5)
#: the served path's label (the only path, so pool tests take it
#: alone), and the oracle's over the same finder
_SERVED = "columnar"
_ENGINES = (_SERVED, ORACLE)
_WINDOWS = (10, 3, 1000, 0.5, None)

_CANDIDATES = stream_candidates(8)
_RESOURCES = 90
_SEED = 41


def _events():
    return stream_resources(_CANDIDATES, _RESOURCES, seed=_SEED)


def _build(analyzer, shards=None, events=None, **layout):
    return ExpertFinder.from_stream(
        _CANDIDATES,
        _events() if events is None else events,
        analyzer,
        FinderConfig(window=None),
        shards=shards,
        **layout,
    )


def _unsharded(analyzer):
    """The unsharded finder the oracle ranks over."""
    return _build(analyzer)


def _observe(finders, events, prefix):
    for i, (_node_id, text, supporters, *rest) in enumerate(events):
        language = rest[0] if rest else None
        indexed = {
            finder.observe(f"{prefix}{i}", text, supporters, language=language)
            for finder in finders
        }
        assert len(indexed) == 1


def _shard_segments(finder):
    return finder.segmented_index.iter_segments()[: finder.index_stats.shards]


@pytest.fixture(scope="module")
def reference(analyzer):
    """The unsharded finder over the module stream (read-only)."""
    return _unsharded(analyzer)


@pytest.fixture(scope="module")
def queries():
    return stream_queries(5, seed=_SEED)


class TestPartition:
    """The resource split: every resource in exactly one shard segment,
    indexed documents in contiguous sorted-id runs of near-equal size."""

    def test_disjoint_cover(self, analyzer):
        finder = _build(analyzer, shards=3)
        shards = _shard_segments(finder)
        assert len(shards) == 3
        seen: set[str] = set()
        for segment in shards:
            assert not seen & segment.resource_ids
            seen |= segment.resource_ids
            for doc_id, rows in segment.evidence.items():
                assert list(rows) == list(finder.evidence_of[doc_id])
        assert seen == set(finder.evidence_of)

    def test_deterministic_and_order_independent(self, analyzer):
        events = list(_events())
        forward = _build(analyzer, shards=3, events=events)
        backward = _build(analyzer, shards=3, events=list(reversed(events)))
        assert [s.resource_ids for s in _shard_segments(forward)] == [
            s.resource_ids for s in _shard_segments(backward)
        ]

    def test_more_shards_than_candidates(self, analyzer):
        # the split is by resource, so the candidate count bounds nothing
        finder = ExpertFinder.from_stream(
            _CANDIDATES[:2],
            stream_resources(_CANDIDATES[:2], 30, seed=_SEED),
            analyzer,
            FinderConfig(window=None),
            shards=5,
        )
        assert finder.index_stats.shards == 5
        assert all(finder.index_stats.segment_docs)

    def test_invalid_shard_count(self, analyzer):
        term_index, entity_index = build_indexes([])
        with pytest.raises(ValueError, match="shards"):
            split_by_resource(term_index, entity_index, {}, 0)

    def test_empty_candidates(self, analyzer):
        # candidates without any evidence: no run, no shard segment
        finder = _build(analyzer, shards=3, events=[])
        assert finder.index_stats.shards == 0
        assert finder.index_stats.segments == 0
        with pytest.raises(RuntimeError, match="sharded"):
            finder.start_scatter_pool()

    def test_balanced(self, analyzer):
        # no duplicated work: every indexed document sits in exactly one
        # shard segment, and the shard sizes differ by at most one
        for shards in (2, 3, 4):
            finder = _build(analyzer, shards=shards)
            sizes = finder.index_stats.segment_docs[:shards]
            assert finder.index_stats.shards == shards
            assert sum(sizes) == finder.indexed_resources
            assert max(sizes) - min(sizes) <= 1
            assert len(_shard_segments(finder)) == finder.index_stats.segments

    def test_fewer_documents_than_shards(self, analyzer):
        events = list(_events())[:3]
        term_index, entity_index = build_indexes(
            [analyzer.analyze(node_id, text) for node_id, text, *_ in events]
        )
        evidence = {node_id: rows for node_id, _text, rows, *_ in events}
        slices = split_by_resource(term_index, entity_index, evidence, 5)
        assert [s[0].document_count for s in slices] == [1, 1, 1]


class TestGlobalStatistics:
    """Every query of a sharded finder uses the index's one set of
    collection statistics: the df sums over all segments and the
    buffer, the same integers as the unsharded collection's."""

    def test_irf_zero_for_unknown(self, analyzer, reference):
        sharded = _build(analyzer, shards=3).segmented_index
        plain = reference.segmented_index
        term_index, entity_index, _ = plain.merged_slice()
        for term in term_index.terms():
            assert sharded.irf(term) == plain.irf(term)
        for uri, _postings in entity_index.items():
            assert sharded.eirf(uri) == plain.eirf(uri)
        assert sharded.irf("nope") == 0.0
        assert sharded.eirf("nope") == 0.0


class TestShardCountInvariance:
    """Rankings must be byte-identical to the unsharded build for every
    shard count × window shape, served and on the oracle, with observes
    interleaved."""

    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    @pytest.mark.parametrize("engine", _ENGINES)
    def test_rankings_identical(self, analyzer, reference, queries, shards, engine):
        sharded = _build(analyzer, shards=shards)
        assert sharded.index_stats.shards == shards
        for window in _WINDOWS:
            for text in queries:
                assert ranked_on(sharded, engine, text, window=window) == \
                    oracle_experts(reference, text, window=window)

    @pytest.mark.parametrize("shards", (2, 3))
    def test_observe_between_queries(self, analyzer, queries, shards):
        plain = _unsharded(analyzer)
        sharded = _build(analyzer, shards=shards)
        extra = stream_resources(_CANDIDATES, 12, seed=_SEED + 1)
        for i, event in enumerate(extra):
            _observe((plain, sharded), [event], f"obs{i}-")
            query = queries[i % len(queries)]
            window = _WINDOWS[i % len(_WINDOWS)]
            assert sharded.find_experts(query, window=window) == \
                oracle_experts(plain, query, window=window)


class TestPinning:
    """Shard segments never change: seals and merges only ever produce
    later segments, and compaction plans over those alone."""

    @pytest.fixture
    def written(self, analyzer):
        sharded = _build(analyzer, shards=3, seal_threshold=1)
        plain = _unsharded(analyzer)
        before = [(s.segment_id, s.document_count) for s in _shard_segments(sharded)]
        _observe((sharded, plain), stream_resources(_CANDIDATES, 10, seed=7), "w")
        return sharded, plain, before

    def test_tiered_merges_leave_shard_segments(self, written):
        sharded, _plain, before = written
        stats = sharded.index_stats
        assert stats.compactions >= 1  # ten seals of one resource merged
        assert stats.shards == 3
        after = [(s.segment_id, s.document_count) for s in _shard_segments(sharded)]
        assert after == before

    def test_full_compaction_merges_only_the_rest(self, written):
        sharded, _plain, before = written
        assert sharded.index_stats.segments > 4
        assert sharded.segmented_index.compact(full=True) == 1
        stats = sharded.index_stats
        assert stats.segments == 4 and stats.buffered == 0
        after = [(s.segment_id, s.document_count) for s in _shard_segments(sharded)]
        assert after == before
        assert sharded.segmented_index.compact(full=True) == 0

    @pytest.mark.parametrize("shards", (1, 2, 3, 4))
    def test_rankings_after_writes_compaction_and_reload(
        self, analyzer, queries, tmp_path, shards
    ):
        sharded = _build(analyzer, shards=shards, seal_threshold=2)
        plain = _unsharded(analyzer)

        def check(finder):
            for engine in _ENGINES:
                for window in (6, 0.5, None):
                    expected = [oracle_experts(plain, q, window=window) for q in queries]
                    assert [
                        ranked_on(finder, engine, q, window=window) for q in queries
                    ] == expected
                    if engine != ORACLE:
                        finder.start_scatter_pool()
                        try:
                            assert finder.find_experts_many(queries, window=window) \
                                == expected
                        finally:
                            finder.close_scatter_pool()

        _observe((sharded, plain), stream_resources(_CANDIDATES, 9, seed=8), "r")
        assert sharded.index_stats.compactions >= 1  # a tiered merge ran
        check(sharded)
        sharded.segmented_index.compact(full=True)
        check(sharded)
        sharded.save(tmp_path / "snap")
        loaded = ExpertFinder.load(tmp_path / "snap", analyzer)
        assert loaded.index_stats.shards == shards
        check(loaded)


class TestScatterPool:
    """The pool path must match the serial coordinator exactly."""

    @pytest.mark.parametrize("engine", (_SERVED,))
    def test_executor_matches_serial(self, analyzer, reference, queries, engine):
        sharded = _build(analyzer, shards=3)
        executor = sharded.start_scatter_pool()
        try:
            assert executor.worker_count == 3
            for window in _WINDOWS:
                for text in queries:
                    assert sharded.find_experts(text, window=window) == \
                        oracle_experts(reference, text, window=window)
        finally:
            sharded.close_scatter_pool()

    @pytest.mark.parametrize("shards", (1, 2, 5))
    @pytest.mark.parametrize("engine", (_SERVED,))
    def test_pool_at_other_shard_counts(
        self, analyzer, reference, queries, shards, engine
    ):
        # the serial cells cover {1, 2, 3, 5}; the pool cell above is 3
        sharded = _build(analyzer, shards=shards)
        sharded.start_scatter_pool()
        try:
            for window in _WINDOWS:
                assert sharded.find_experts_many(queries, window=window) == [
                    oracle_experts(reference, text, window=window) for text in queries
                ]
        finally:
            sharded.close_scatter_pool()

    def test_find_experts_many_matches(self, analyzer, reference, queries):
        sharded = _build(analyzer, shards=2)
        pool = sharded.start_scatter_pool()
        try:
            batched = sharded.find_experts_many(queries, window=6)
            serial = [oracle_experts(reference, q, window=6) for q in queries]
            assert batched == serial
            assert pool.last_batch_depth > 1.0
        finally:
            sharded.close_scatter_pool()

    def test_observe_reaches_workers(self, analyzer, queries):
        # observes made after the pool starts — seals included — land in
        # the coordinator's buffer and later segments; the workers never
        # see them and the answers still equal the serial oracle's
        plain = _unsharded(analyzer)
        sharded = _build(analyzer, shards=2, seal_threshold=2)
        sharded.start_scatter_pool()
        try:
            events = stream_resources(_CANDIDATES, 7, seed=_SEED + 2)
            for i, event in enumerate(events):
                _observe((plain, sharded), [event], f"live{i}-")
                for window in (8, None):
                    assert sharded.find_experts_many(queries, window=window) == [
                        oracle_experts(plain, text, window=window)
                        for text in queries
                    ]
            assert sharded.index_stats.seals >= 3
            assert sharded.index_stats.buffered == 1
        finally:
            sharded.close_scatter_pool()

    def test_pool_restart_after_close(self, analyzer, reference, queries):
        sharded = _build(analyzer, shards=2)
        first = sharded.start_scatter_pool()
        assert sharded.start_scatter_pool() is first  # idempotent
        sharded.close_scatter_pool()
        sharded.close_scatter_pool()  # idempotent
        second = sharded.start_scatter_pool()
        try:
            assert second is not first
            text = queries[0]
            assert sharded.find_experts(text, window=5) == \
                oracle_experts(reference, text, window=5)
        finally:
            sharded.close_scatter_pool()

    def test_worker_crash_raises_not_hangs(self, analyzer, reference, queries):
        sharded = _build(analyzer, shards=2)
        executor = sharded.start_scatter_pool()
        try:
            os.kill(executor.pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            with pytest.raises(RuntimeError, match="worker"):
                sharded.find_experts(queries[0], window=5)
            assert time.monotonic() < deadline, "crash detection hung"
            # the failed query dropped the pool; the finder answers serially
            assert sharded.segmented_index.scatter_pool is None
            assert sharded.find_experts(queries[0], window=5) == \
                oracle_experts(reference, queries[0], window=5)
        finally:
            sharded.close_scatter_pool()


class TestValidation:
    def test_shards_require_positive_count(self, analyzer):
        with pytest.raises(ValueError, match="shards"):
            _build(analyzer, shards=0)

    def test_single_shard_allowed(self, analyzer, reference, queries):
        sharded = _build(analyzer, shards=1)
        assert sharded.index_stats.shards == 1
        for text in queries:
            assert sharded.find_experts(text) == oracle_experts(reference, text)

    def test_stats_shape(self, analyzer):
        stats = _build(analyzer, shards=3).index_stats
        assert stats.shards == stats.segments == 3
        assert len(stats.segment_docs) == 3
        # no duplicated documents: the shard sizes add up to N
        assert sum(stats.segment_docs) == stats.documents

    def test_unsharded_finder_has_no_pool(self, analyzer):
        with pytest.raises(RuntimeError, match="sharded"):
            _build(analyzer).start_scatter_pool()

    def test_executor_requires_fork(self, analyzer, monkeypatch):
        import multiprocessing

        shards = _shard_segments(_build(analyzer, shards=2))
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(RuntimeError, match="fork"):
            ShardedQueryExecutor(shards)
