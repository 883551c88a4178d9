"""Tests for candidate-sharded scatter-gather query execution.

The load-bearing property is *shard-count invariance*: for any shard
count K and both fast engines, a sharded finder must rank
byte-identically to the object path (``VectorSpaceRetriever`` +
``ExpertRanker``) of the unsharded build over the same stream —
including after streaming observes between queries, and whether shards
are evaluated serially in the coordinator or scattered to the worker
pool.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.sharded import (
    GlobalStatistics,
    ShardedQueryExecutor,
    partition_candidates,
)
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources

_SHARD_COUNTS = (1, 2, 3, 5)
_ENGINES = ("columnar", "columnar-pruned")
_WINDOWS = (10, 3, 1000, 0.5, None)

_CANDIDATES = stream_candidates(8)
_RESOURCES = 90
_SEED = 41


def _events():
    return stream_resources(_CANDIDATES, _RESOURCES, seed=_SEED)


def _build(analyzer, shards=None):
    return ExpertFinder.from_stream(
        _CANDIDATES,
        _events(),
        analyzer,
        FinderConfig(window=None),
        shards=shards,
    )


def _oracle(analyzer):
    """An unsharded finder ranking on the object path."""
    finder = _build(analyzer)
    finder.engine = "object"
    return finder


@pytest.fixture(scope="module")
def reference(analyzer):
    """The object-path oracle over the module stream (read-only)."""
    return _oracle(analyzer)


@pytest.fixture(scope="module")
def queries():
    return stream_queries(5, seed=_SEED)


class TestPartition:
    def test_disjoint_cover(self):
        groups = partition_candidates(_CANDIDATES, 3)
        assert len(groups) == 3
        merged = [cid for group in groups for cid in group]
        assert sorted(merged) == sorted(_CANDIDATES)

    def test_deterministic_and_order_independent(self):
        assert partition_candidates(_CANDIDATES, 3) == partition_candidates(
            list(reversed(_CANDIDATES)), 3
        )

    def test_more_shards_than_candidates(self):
        groups = partition_candidates(["a", "b"], 5)
        assert len(groups) == 5
        assert sum(len(g) for g in groups) == 2

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shards"):
            partition_candidates(_CANDIDATES, 0)

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="empty candidate"):
            partition_candidates([], 2)

    def test_balanced(self):
        groups = partition_candidates(stream_candidates(10), 3)
        sizes = sorted(len(g) for g in groups)
        assert max(sizes) - min(sizes) <= 1


class TestGlobalStatistics:
    def test_irf_zero_for_unknown(self):
        stats = GlobalStatistics(1.0)
        assert stats.irf("nope") == 0.0
        assert stats.eirf("nope") == 0.0

    def test_pickle_roundtrip(self, reference):
        import pickle

        stats = reference.sharded_index if reference.sharded_index else None
        from repro.index.analyzer import AnalyzedResource

        source = GlobalStatistics(1.0)
        source.add_document(
            AnalyzedResource(
                doc_id="d1",
                language="en",
                term_counts={"swim": 2},
                entity_counts={"ent:pool": (1, 0.5)},
            )
        )
        clone = pickle.loads(pickle.dumps(source))
        assert clone.doc_count == source.doc_count
        assert clone.irf("swim") == source.irf("swim")
        assert clone.eirf("ent:pool") == source.eirf("ent:pool")
        assert stats is None  # reference finder is unsharded


class TestShardCountInvariance:
    """Rankings must be byte-identical to the unsharded build for every
    shard count × engine × window shape, with observes interleaved."""

    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    @pytest.mark.parametrize("engine", _ENGINES)
    def test_rankings_identical(self, analyzer, reference, queries, shards, engine):
        sharded = _build(analyzer, shards=shards)
        assert sharded.index_mode == "sharded"
        sharded.engine = engine
        for window in _WINDOWS:
            for text in queries:
                assert sharded.find_experts(text, window=window) == \
                    reference.find_experts(text, window=window)

    @pytest.mark.parametrize("shards", (2, 3))
    def test_observe_between_queries(self, analyzer, queries, shards):
        plain = _oracle(analyzer)
        sharded = _build(analyzer, shards=shards)
        sharded.engine = "columnar"
        extra = stream_resources(_CANDIDATES, 12, seed=_SEED + 1)
        for i, event in enumerate(extra):
            node_id, text, supporters, *rest = event
            language = rest[0] if rest else None
            indexed_plain = plain.observe(
                f"obs{i}", text, supporters, language=language
            )
            indexed_sharded = sharded.observe(
                f"obs{i}", text, supporters, language=language
            )
            assert indexed_plain == indexed_sharded
            query = queries[i % len(queries)]
            window = _WINDOWS[i % len(_WINDOWS)]
            assert sharded.find_experts(query, window=window) == \
                plain.find_experts(query, window=window)

    def test_object_engine_rejected(self, analyzer, queries):
        # the oracle needs the whole collection in one place; a sharded
        # finder splits it, so the object path is refused up front
        sharded = _build(analyzer, shards=2)
        with pytest.raises(ValueError, match="object engine"):
            sharded.engine = "object"
        with pytest.raises(RuntimeError, match="sharded"):
            sharded.match_resources(queries[0])


class TestScatterPool:
    """The executor path must match the serial coordinator exactly."""

    @pytest.mark.parametrize("engine", ("columnar", "columnar-pruned"))
    def test_executor_matches_serial(self, analyzer, reference, queries, engine):
        sharded = _build(analyzer, shards=3)
        sharded.engine = engine
        executor = sharded.start_scatter_pool()
        try:
            assert executor.worker_count == 3
            for window in _WINDOWS:
                for text in queries:
                    assert sharded.find_experts(text, window=window) == \
                        reference.find_experts(text, window=window)
        finally:
            sharded.close_scatter_pool()

    @pytest.mark.parametrize("shards", (1, 2, 5))
    @pytest.mark.parametrize("engine", _ENGINES)
    def test_pool_at_other_shard_counts(
        self, analyzer, reference, queries, shards, engine
    ):
        # the serial cells cover {1, 2, 3, 5}; the pool cell above is 3
        sharded = _build(analyzer, shards=shards)
        sharded.engine = engine
        sharded.start_scatter_pool()
        try:
            for window in _WINDOWS:
                assert sharded.find_experts_many(queries, window=window) == [
                    reference.find_experts(text, window=window) for text in queries
                ]
        finally:
            sharded.close_scatter_pool()

    def test_find_experts_many_matches(self, analyzer, reference, queries):
        sharded = _build(analyzer, shards=2)
        sharded.engine = "columnar"
        sharded.start_scatter_pool()
        try:
            batched = sharded.find_experts_many(queries, window=6)
            serial = [reference.find_experts(q, window=6) for q in queries]
            assert batched == serial
            assert sharded.sharded_index.executor.last_batch_depth > 1.0
        finally:
            sharded.close_scatter_pool()

    def test_observe_reaches_workers(self, analyzer, queries):
        plain = _oracle(analyzer)
        sharded = _build(analyzer, shards=2)
        sharded.engine = "columnar"
        sharded.start_scatter_pool()
        try:
            for i, event in enumerate(
                stream_resources(_CANDIDATES, 6, seed=_SEED + 2)
            ):
                node_id, text, supporters, *rest = event
                language = rest[0] if rest else None
                plain.observe(f"live{i}", text, supporters, language=language)
                sharded.observe(f"live{i}", text, supporters, language=language)
            for text in queries:
                assert sharded.find_experts(text, window=8) == \
                    plain.find_experts(text, window=8)
        finally:
            sharded.close_scatter_pool()

    def test_pool_restart_after_close(self, analyzer, reference, queries):
        sharded = _build(analyzer, shards=2)
        sharded.engine = "columnar"
        first = sharded.start_scatter_pool()
        assert sharded.start_scatter_pool() is first  # idempotent
        sharded.close_scatter_pool()
        sharded.close_scatter_pool()  # idempotent
        second = sharded.start_scatter_pool()
        try:
            assert second is not first
            text = queries[0]
            assert sharded.find_experts(text, window=5) == \
                reference.find_experts(text, window=5)
        finally:
            sharded.close_scatter_pool()

    def test_worker_crash_raises_not_hangs(self, analyzer, queries):
        sharded = _build(analyzer, shards=2)
        sharded.engine = "columnar"
        executor = sharded.start_scatter_pool()
        try:
            os.kill(executor.pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            with pytest.raises(RuntimeError, match="worker"):
                sharded.find_experts(queries[0], window=5)
            assert time.monotonic() < deadline, "crash detection hung"
        finally:
            sharded.close_scatter_pool()


class TestValidation:
    def test_shards_require_positive_count(self, analyzer):
        with pytest.raises(ValueError, match="shards"):
            _build(analyzer, shards=0)

    def test_single_shard_allowed(self, analyzer, reference, queries):
        sharded = _build(analyzer, shards=1)
        assert sharded.sharded_index.shard_count == 1
        for text in queries:
            assert sharded.find_experts(text) == reference.find_experts(text)

    def test_stats_shape(self, analyzer):
        sharded = _build(analyzer, shards=3).sharded_index
        stats = sharded.stats
        assert stats.shards == 3
        assert len(stats.shard_docs) == 3
        # duplicated resources make the per-shard sum >= the unique count
        assert sum(stats.shard_docs) >= stats.documents
        assert stats.documents == sharded.document_count

    def test_executor_requires_fork(self, analyzer, monkeypatch):
        import multiprocessing

        sharded = _build(analyzer, shards=2).sharded_index
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(RuntimeError, match="fork"):
            ShardedQueryExecutor(sharded.iter_shards())
