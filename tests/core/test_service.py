"""Tests for the cached query-serving layer."""

import threading

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.service import (
    ExpertSearchService,
    normalize_need_text,
    percentile,
)
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import Platform, RelationKind, Resource, UserProfile


@pytest.fixture
def finder(analyzer):
    g = SocialGraph(Platform.TWITTER)
    for pid in ("alice", "bob"):
        g.add_profile(
            UserProfile(profile_id=pid, platform=Platform.TWITTER, display_name=pid)
        )
    g.add_resource(
        Resource(resource_id="t1", platform=Platform.TWITTER,
                 text="freestyle swimming training at the pool", language="en")
    )
    g.add_resource(
        Resource(resource_id="t2", platform=Platform.TWITTER,
                 text="guitar chords and a new rock song", language="en")
    )
    g.link_resource("alice", "t1", RelationKind.CREATES)
    g.link_resource("bob", "t2", RelationKind.CREATES)
    return ExpertFinder.build(
        g, ("alice", "bob"), analyzer, FinderConfig(window=None)
    )


@pytest.fixture
def service(finder):
    return ExpertSearchService(finder)


class TestNormalization:
    def test_collapses_case_and_whitespace(self):
        assert normalize_need_text("  Best\tFreestyle  SWIMMER ") == (
            "best freestyle swimmer"
        )


class TestCaching:
    def test_repeat_query_hits_cache(self, service):
        first = service.find_experts("freestyle swimming")
        second = service.find_experts("freestyle swimming")
        assert first == second
        stats = service.stats
        assert (stats.cache_misses, stats.cache_hits) == (1, 1)

    def test_normalized_variants_share_entry(self, service):
        first = service.find_experts("freestyle swimming")
        second = service.find_experts("  FREESTYLE   Swimming ")
        assert first == second
        assert service.stats.cache_hits == 1
        assert service.cached_results == 1

    def test_parameters_key_the_cache(self, service):
        service.find_experts("freestyle swimming")
        service.find_experts("freestyle swimming", top_k=1)
        service.find_experts("freestyle swimming", alpha=1.0)
        service.find_experts("freestyle swimming", window=5)
        assert service.stats.cache_hits == 0
        assert service.cached_results == 4

    def test_explicit_configured_values_share_entry(self, service, finder):
        # passing the configured α/window explicitly must not fragment
        # the cache into a separate entry per spelling of the same query
        config = finder.config
        service.find_experts("freestyle swimming")
        service.find_experts(
            "freestyle swimming", alpha=config.alpha, window=config.window
        )
        service.find_experts("freestyle swimming", alpha=config.alpha)
        service.find_experts("freestyle swimming", window=config.window)
        assert service.stats.cache_hits == 3
        assert service.cached_results == 1

    def test_window_type_keys_the_cache(self, service):
        # window=1 (top-1 resource) and window=1.0 (fraction of the
        # matches: all of them) hash equal as numbers but rank
        # differently — they must not share a cache entry
        service.find_experts("freestyle swimming training pool", window=1)
        service.find_experts("freestyle swimming training pool", window=1.0)
        assert service.stats.cache_hits == 0
        assert service.cached_results == 2

    def test_cached_result_is_a_copy(self, service):
        first = service.find_experts("freestyle swimming")
        first.append("junk")
        assert service.find_experts("freestyle swimming") != first

    def test_lru_eviction(self, finder):
        service = ExpertSearchService(finder, cache_size=2)
        service.find_experts("freestyle swimming")
        service.find_experts("rock guitar")
        service.find_experts("pasta recipe")  # evicts the oldest entry
        assert service.cached_results == 2
        service.find_experts("freestyle swimming")
        assert service.stats.cache_hits == 0  # evicted → recomputed

    def test_lru_refreshes_on_hit(self, finder):
        service = ExpertSearchService(finder, cache_size=2)
        service.find_experts("freestyle swimming")
        service.find_experts("rock guitar")
        service.find_experts("freestyle swimming")  # refresh: now most recent
        service.find_experts("pasta recipe")  # evicts "rock guitar"
        service.find_experts("freestyle swimming")
        assert service.stats.cache_hits == 2

    def test_zero_cache_size_disables_caching(self, finder):
        service = ExpertSearchService(finder, cache_size=0)
        service.find_experts("freestyle swimming")
        service.find_experts("freestyle swimming")
        stats = service.stats
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2
        assert service.cached_results == 0

    def test_negative_cache_size_rejected(self, finder):
        with pytest.raises(ValueError):
            ExpertSearchService(finder, cache_size=-1)


class TestObserve:
    def test_observe_invalidates_cache(self, service):
        stale = service.find_experts("theremin concert")
        assert stale == []
        assert service.observe(
            "s:new:1", "an amazing theremin concert last night", [("bob", 1)]
        )
        fresh = service.find_experts("theremin concert")
        assert [e.candidate_id for e in fresh] == ["bob"]
        stats = service.stats
        assert stats.cache_misses == 2  # second query recomputed, not served stale
        assert stats.observed == 1
        assert stats.invalidations == 1

    def test_observe_returns_finder_verdict(self, service, finder):
        before = finder.indexed_resources
        assert service.observe("s:new:2", "guitar solo cover", [("bob", 1)])
        assert finder.indexed_resources == before + 1

    def test_non_indexed_observe_keeps_cache(self, service):
        cached = service.find_experts("freestyle swimming")
        indexed = service.observe(
            "it:1",
            "questa e una bella giornata per andare in piscina con gli amici",
            [("alice", 1)],
        )
        assert not indexed
        # the language-cut resource cannot change any cached ranking, so
        # the cache survives and the repeat query is a hit
        assert service.cached_results == 1
        assert service.find_experts("freestyle swimming") == cached
        stats = service.stats
        assert stats.cache_hits == 1
        assert stats.invalidations == 0
        assert stats.cache_survivals == 1

    def test_indexed_observe_still_clears_cache(self, service):
        service.find_experts("freestyle swimming")
        assert service.observe(
            "s:new:3", "freestyle swimming laps again", [("alice", 1)]
        )
        stats = service.stats
        assert stats.invalidations == 1
        assert stats.cache_survivals == 0
        assert service.cached_results == 0


class TestSegmentGauges:
    def test_monolithic_gauges_are_zero(self, service):
        # a cold build is one sealed segment; nothing buffered or merged
        stats = service.stats
        assert (stats.segments, stats.buffered_docs, stats.compactions) == (1, 0, 0)

    def test_segmented_gauges_track_index(self, analyzer):
        g = SocialGraph(Platform.TWITTER)
        for pid in ("alice", "bob"):
            g.add_profile(
                UserProfile(
                    profile_id=pid, platform=Platform.TWITTER, display_name=pid
                )
            )
        g.add_resource(
            Resource(resource_id="t1", platform=Platform.TWITTER,
                     text="freestyle swimming training at the pool", language="en")
        )
        g.link_resource("alice", "t1", RelationKind.CREATES)
        finder = ExpertFinder.build(
            g, ("alice", "bob"), analyzer, FinderConfig(window=None),
            seal_threshold=2,
        )
        service = ExpertSearchService(finder)
        stats = service.stats
        assert stats.segments == 1  # the base segment
        assert stats.buffered_docs == 0

        service.observe("s1", "guitar solo cover tonight", [("bob", 1)])
        assert service.stats.buffered_docs == 1
        # the second observe crosses the seal threshold; synchronous
        # compaction runs but two differently-sized segments don't merge
        service.observe("s2", "another swimming race recap", [("alice", 1)])
        stats = service.stats
        assert stats.buffered_docs == 0
        assert stats.segments == 2
        assert stats.invalidations == 2


class TestBatchAndStats:
    def test_batch_matches_single_queries(self, service, finder):
        needs = ["freestyle swimming", "rock guitar", "freestyle swimming"]
        batched = service.find_experts_batch(needs, top_k=5)
        assert batched == [
            finder.find_experts(need, top_k=5) for need in needs
        ]
        stats = service.stats
        assert stats.queries == 3
        assert stats.cache_hits == 1  # the duplicated need

    def test_latency_counters(self, service):
        assert service.stats.p50_latency == 0.0
        for _ in range(4):
            service.find_experts("freestyle swimming")
        stats = service.stats
        assert stats.p50_latency > 0.0
        assert stats.p95_latency >= stats.p50_latency
        assert service.latency_percentile(100) >= stats.p95_latency

    def test_latency_buffer_bounded(self, finder):
        service = ExpertSearchService(finder, max_latency_samples=8)
        for _ in range(50):
            service.find_experts("freestyle swimming")
        assert len(service._latencies) <= 8
        assert service.stats.queries == 50

    def test_hit_rate_empty(self, service):
        assert service.stats.hit_rate == 0.0


class TestFailedQueries:
    """A call that raises answers nothing, so it counts as neither a
    query nor a cache miss: ``queries == cache_hits + cache_misses``
    holds after any mix of failed and answered calls."""

    @pytest.fixture
    def stream_service(self, analyzer):
        from repro.synthetic.stream import stream_candidates, stream_resources

        cands = stream_candidates(6)
        finder = ExpertFinder.from_stream(
            cands, stream_resources(cands, 40, seed=5), analyzer
        )
        return ExpertSearchService(finder)

    def test_failed_calls_are_not_misses(self, stream_service):
        with pytest.raises(ValueError, match="alpha"):
            stream_service.find_experts("freestyle swimming", alpha=2.0)
        with pytest.raises(ValueError, match="top_k"):
            stream_service.find_experts("freestyle swimming", top_k=-1)
        stream_service.find_experts("freestyle swimming")
        stats = stream_service.stats
        assert (stats.queries, stats.cache_hits, stats.cache_misses) == (1, 0, 1)
        assert stats.to_dict()["cache_misses"] == 1

    def test_failed_batch_is_not_counted(self, stream_service):
        with pytest.raises(ValueError, match="alpha"):
            stream_service.find_experts_batch(["swimming", "guitar"], alpha=2.0)
        stream_service.find_experts_batch(["swimming", "swimming"])
        stats = stream_service.stats
        assert (stats.queries, stats.cache_hits, stats.cache_misses) == (2, 1, 1)


class TestPercentile:
    def test_empty_sample_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 95) == 0.0

    @pytest.mark.parametrize("pct", [-0.1, 100.1, 200])
    def test_out_of_range_raises_even_on_empty(self, pct):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([], pct)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0, 2.0], pct)

    def test_nearest_rank(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert percentile(sample, 0) == 1.0
        assert percentile(sample, 50) == 2.0
        assert percentile(sample, 75) == 3.0
        assert percentile(sample, 76) == 4.0
        assert percentile(sample, 100) == 4.0

    def test_singleton(self):
        assert percentile([7.0], 1) == 7.0
        assert percentile([7.0], 99) == 7.0


class TestStatsEdgeCases:
    def test_all_gauges_defined_before_first_request(self, service):
        stats = service.stats
        assert stats.queries == 0
        assert stats.hit_rate == 0.0
        assert stats.p50_latency == 0.0
        assert stats.p95_latency == 0.0

    def test_latency_percentile_empty_and_bounds(self, service):
        assert service.latency_percentile(95) == 0.0
        with pytest.raises(ValueError):
            service.latency_percentile(101)
        service.find_experts("freestyle swimming")
        assert service.latency_percentile(95) > 0.0

    def test_to_dict_mirrors_stats(self, service):
        service.find_experts("freestyle swimming")
        service.find_experts("freestyle swimming")
        stats = service.stats
        as_dict = stats.to_dict()
        assert as_dict["queries"] == stats.queries == 2
        assert as_dict["cache_hits"] == stats.cache_hits == 1
        assert as_dict["hit_rate"] == stats.hit_rate == 0.5
        assert as_dict["p50_latency_s"] == stats.p50_latency
        assert as_dict["p95_latency_s"] == stats.p95_latency

    def test_to_dict_is_json_ready(self, service):
        import json

        service.find_experts("freestyle swimming")
        parsed = json.loads(json.dumps(service.stats.to_dict()))
        assert parsed["queries"] == 1


class TestThreadSafety:
    """The service is shared by gateway executor threads: concurrent
    queries and observes must never corrupt the cache, the counters, or
    the finder's write buffer and statistics caches."""

    def test_concurrent_queries_and_observes(self, finder):
        service = ExpertSearchService(finder, cache_size=8)
        needs = [
            "freestyle swimming",
            "rock guitar",
            "pasta recipe",
            "theremin concert",
        ]
        errors: list[Exception] = []
        barrier = threading.Barrier(len(needs) + 1)

        def query_worker(need: str) -> None:
            try:
                barrier.wait(10.0)
                for _ in range(25):
                    experts = service.find_experts(need)
                    ids = [e.candidate_id for e in experts]
                    assert len(ids) == len(set(ids))
                    assert all(
                        e.supporting_resources >= 1 for e in experts
                    )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        def observe_worker() -> None:
            try:
                barrier.wait(10.0)
                for i in range(10):
                    service.observe(
                        f"obs:{i}",
                        "another swimming race recap",
                        [("alice", 1)],
                    )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=query_worker, args=(need,))
            for need in needs
        ]
        threads.append(threading.Thread(target=observe_worker))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert errors == []
        stats = service.stats
        assert stats.queries == 100
        assert stats.observed == 10
        assert stats.cache_hits + stats.cache_misses == 100
        assert len(service._latencies) == stats.queries

    def test_concurrent_batches_share_the_cache(self, finder):
        service = ExpertSearchService(finder, cache_size=32)
        needs = ["freestyle swimming", "rock guitar"]
        errors: list[Exception] = []

        def batch_worker() -> None:
            try:
                for _ in range(10):
                    results = service.find_experts_batch(needs)
                    assert len(results) == len(needs)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=batch_worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert errors == []
        stats = service.stats
        assert stats.queries == 80
        # only the first computation of each need can miss
        assert stats.cache_misses == len(needs)
        assert stats.cache_hits == 80 - len(needs)
