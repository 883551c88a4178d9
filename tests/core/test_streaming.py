"""Tests for streaming (incremental) resource ingestion."""

import random

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import (
    Platform,
    RelationKind,
    Resource,
    SocialRelation,
    UserProfile,
)
from tests.oracle import Oracle, oracle_experts


@pytest.fixture
def finder(analyzer):
    g = SocialGraph(Platform.TWITTER)
    for pid in ("alice", "bob"):
        g.add_profile(
            UserProfile(profile_id=pid, platform=Platform.TWITTER, display_name=pid)
        )
    g.add_resource(
        Resource(resource_id="t1", platform=Platform.TWITTER,
                 text="guitar chords and a new rock song", language="en")
    )
    g.link_resource("alice", "t1", RelationKind.CREATES)
    return ExpertFinder.build(
        g, ("alice", "bob"), analyzer, FinderConfig(window=None)
    )


class TestObserve:
    def test_new_resource_changes_ranking(self, finder):
        assert finder.find_experts("freestyle swimming") == []
        indexed = finder.observe(
            "t2",
            "just finished freestyle swimming training at the pool",
            [("bob", 1)],
            language="en",
        )
        assert indexed
        ranked = finder.find_experts("freestyle swimming")
        assert [e.candidate_id for e in ranked] == ["bob"]

    def test_statistics_updated(self, finder):
        before = finder.indexed_resources
        n_before = finder.segmented_index.document_count
        finder.observe("t2", "a brand new post about the gold medal race",
                       [("alice", 1)], language="en")
        assert finder.indexed_resources == before + 1
        assert finder.segmented_index.document_count == n_before + 1

    def test_irf_reflects_new_document(self, finder):
        index = finder.segmented_index
        irf_before = index.irf("guitar")
        finder.observe("t2", "more guitar practice with the band tonight",
                       [("alice", 1)], language="en")
        # "guitar" now appears in 2 of 3 docs → its irf must drop
        assert index.irf("guitar") < irf_before

    def test_evidence_count_updated(self, finder):
        before = finder.evidence_count("bob")
        finder.observe("t2", "swimming laps", [("bob", 1)], language="en")
        assert finder.evidence_count("bob") == before + 1

    def test_multi_supporter(self, finder):
        finder.observe(
            "shared", "a freestyle swimming discussion in the group",
            [("alice", 2), ("bob", 2)], language="en",
        )
        ranked = finder.find_experts("freestyle swimming")
        assert {e.candidate_id for e in ranked} == {"alice", "bob"}

    def test_non_english_not_indexed_but_counted(self, finder):
        indexed = finder.observe(
            "it1",
            "questa e una bella giornata per andare in piscina con gli amici",
            [("alice", 1)],
        )
        assert not indexed
        assert finder.evidence_count("alice") == 3  # profile + t1 + it1

    def test_duplicate_rejected(self, finder):
        finder.observe("t2", "hello hello", [("alice", 1)], language="en")
        with pytest.raises(ValueError):
            finder.observe("t2", "again", [("alice", 1)], language="en")

    def test_unknown_candidate_rejected(self, finder):
        with pytest.raises(KeyError):
            finder.observe("t9", "text", [("ghost", 1)], language="en")

    def test_invalid_distance_rejected(self, finder):
        with pytest.raises(ValueError):
            finder.observe("t9", "text", [("alice", 7)], language="en")

    def test_empty_supporters_rejected(self, finder):
        with pytest.raises(ValueError):
            finder.observe("t9", "text", [], language="en")

    def test_repeated_supporter_rejected(self, finder):
        # a graph build keeps each node once per candidate; a repeat
        # would count one resource twice in bob's Eq. 3 sum
        before = finder.evidence_count("bob")
        with pytest.raises(ValueError, match="names candidate 'bob' twice"):
            finder.observe(
                "t9", "freestyle swimming", [("bob", 1), ("bob", 2)], language="en"
            )
        assert finder.evidence_count("bob") == before
        assert "t9" not in finder.segmented_index

    def test_stream_repeated_supporter_rejected(self, analyzer):
        events = [("s1", "freestyle swimming", [("alice", 1), ("alice", 2)])]
        with pytest.raises(ValueError, match="names candidate 'alice' twice"):
            ExpertFinder.from_stream(("alice", "bob"), events, analyzer)


def _served_exactly(finder, need, **kwargs):
    """The oracle's ranking, asserting the served path matches it
    exactly."""
    reference = oracle_experts(finder, need, **kwargs)
    assert finder.find_experts(need, **kwargs) == reference
    return reference


class TestStreamingEngineEquivalence:
    """Interleaved observe() + queries: the served path must track the
    oracle exactly (the window/α sweeps live in
    tests/index/test_columnar.py)."""

    def test_interleaved_observe_and_query(self, finder):
        need = "freestyle swimming"
        assert _served_exactly(finder, need) == []
        finder.observe(
            "t2",
            "just finished freestyle swimming training at the pool",
            [("bob", 1)],
            language="en",
        )
        ranked = _served_exactly(finder, need)
        assert [e.candidate_id for e in ranked] == ["bob"]
        finder.observe(
            "t3",
            "freestyle swimming tips for the next open water race",
            [("alice", 2), ("bob", 2)],
            language="en",
        )
        ranked = _served_exactly(finder, need)
        assert {e.candidate_id for e in ranked} == {"alice", "bob"}
        # overridden parameters agree too, after the same stream
        _served_exactly(finder, need, alpha=1.0, window=1)
        _served_exactly(finder, need, alpha=0.0, window=None)
        _served_exactly(finder, need, top_k=1)

    def test_non_english_observe_keeps_engines_aligned(self, finder):
        # the resource is counted as evidence but not indexed; the
        # served path must not resurrect it as a matchable doc
        indexed = finder.observe(
            "it1",
            "questa e una bella giornata per andare in piscina con gli amici",
            [("alice", 1)],
        )
        assert not indexed
        assert finder.segmented_index.document_count == finder.indexed_resources
        _served_exactly(finder, "guitar rock song")
        _served_exactly(finder, "piscina")


class TestTinyDatasetStream:
    def test_every_need_after_every_observe(self, tiny_dataset):
        """The tiny dataset's finder, sealing every 16 resources, takes 40
        observes, every 5th one Italian (evidence only): after each one,
        every paper need ranks like the oracle over the collection as it
        stands."""
        queries = list(tiny_dataset.queries)
        candidates = list(tiny_dataset.candidates_for(None))
        finder = ExpertFinder.build(
            tiny_dataset.merged_graph,
            tiny_dataset.candidates_for(None),
            tiny_dataset.analyzer,
            FinderConfig(),
            corpus=tiny_dataset.corpus,
            seal_threshold=16,
        )
        for i in range(40):
            italian = i % 5 == 4
            topic = queries[i % len(queries)].text
            text = (
                "questa e una bella giornata per andare in piscina con gli amici"
                if italian
                else f"streamed update number {i} about {topic}"
            )
            indexed = finder.observe(
                f"stream:{i}",
                text,
                [(candidates[i % len(candidates)], 1 + i % 2)],
                language="it" if italian else "en",
            )
            assert indexed is not italian
            oracle = Oracle(finder)
            for need in queries:
                assert finder.find_experts(need) == oracle.rank(need), (i, need)
        assert finder.index_stats.seals >= 2


# -- segmented streaming ------------------------------------------------------

_CANDIDATES = ("alice", "bob", "cara")

#: the streamed tail: (resource id, text, creator profiles for the cold
#: rebuild, supporters for observe()). Creators and supporters describe
#: the same graph state — "s3" is created by followed non-candidate
#: "dave", which the gatherer reaches from alice at distance 2; "s2" has
#: two creators, listed in candidate-seed order like the shared-frontier
#: gather emits them. "s4" is Italian and auto-detects as non-indexed on
#: both paths (languages are auto-detected symmetrically: the cold build
#: analyzes every node with language=None, so observe() does too).
_EVENTS = [
    ("s1", "more freestyle swimming drills before the next race",
     ("bob",), (("bob", 1),)),
    ("s2", "a shared guitar practice session down by the swimming pool",
     ("alice", "bob"), (("alice", 1), ("bob", 1))),
    ("s3", "open water swimming race report with detailed timing splits",
     ("dave",), (("alice", 2),)),
    ("s4", "questa e una bella giornata per andare in piscina con gli amici",
     ("cara",), (("cara", 1),)),
    ("s5", "rock guitar chords for a brand new song",
     ("cara",), (("cara", 1),)),
]

_NEEDS = (
    "freestyle swimming race",
    "rock guitar song",
    "piscina",
    "swimming pool practice",
)


def _stream_graph(events=()):
    """The base social graph plus the resources of *events*."""
    g = SocialGraph(Platform.TWITTER)
    for pid in (*_CANDIDATES, "dave"):
        g.add_profile(
            UserProfile(profile_id=pid, platform=Platform.TWITTER, display_name=pid)
        )
    g.add_social_relation(
        SocialRelation(source="alice", target="dave", kind=RelationKind.FOLLOWS)
    )
    g.add_resource(
        Resource(resource_id="t1", platform=Platform.TWITTER,
                 text="guitar chords and a new rock song")
    )
    g.link_resource("alice", "t1", RelationKind.CREATES)
    for rid, text, creators, _supporters in events:
        g.add_resource(
            Resource(resource_id=rid, platform=Platform.TWITTER, text=text)
        )
        for pid in creators:
            g.link_resource(pid, rid, RelationKind.CREATES)
    return g


class TestSegmentedStreamingEquivalence:
    """A finder fed an interleaved observe()/find_experts() stream that
    seals often ranks byte-identically to (a) a finder fed the same
    stream that never seals and (b) a COLD REBUILD over a graph
    containing the same resources — served and on the oracle, at every
    intermediate state."""

    def test_interleaved_stream_matches_cold_rebuild(self, analyzer):
        config = FinderConfig(window=None)
        segmented = ExpertFinder.build(
            _stream_graph(), _CANDIDATES, analyzer, config, seal_threshold=2,
        )
        monolithic = ExpertFinder.build(
            _stream_graph(), _CANDIDATES, analyzer, config
        )
        for step, (rid, text, _creators, supporters) in enumerate(_EVENTS, 1):
            seg_indexed = segmented.observe(rid, text, supporters)
            mono_indexed = monolithic.observe(rid, text, supporters)
            assert seg_indexed == mono_indexed
            rebuilt = ExpertFinder.build(
                _stream_graph(_EVENTS[:step]), _CANDIDATES, analyzer, config
            )
            for need in _NEEDS:
                expected = _served_exactly(rebuilt, need)
                assert _served_exactly(monolithic, need) == expected
                assert _served_exactly(segmented, need) == expected
        # the stream crossed the seal threshold and indexed the Italian
        # resource as evidence only
        stats = segmented.index_stats
        assert stats.seals >= 1
        assert monolithic.index_stats.seals == 0  # everything still buffered
        assert rebuilt.index_stats.segments == 1  # a cold build: one segment
        assert segmented.indexed_resources == monolithic.indexed_resources
        # parameter overrides agree after the full stream too
        for alpha, window in ((0.0, None), (1.0, 3), (0.5, 0.5)):
            for need in _NEEDS:
                assert segmented.find_experts(
                    need, alpha=alpha, window=window
                ) == monolithic.find_experts(need, alpha=alpha, window=window)

    def test_compaction_preserves_stream_rankings(self, analyzer):
        config = FinderConfig(window=None)
        segmented = ExpertFinder.build(
            _stream_graph(), _CANDIDATES, analyzer, config,
            seal_threshold=1, compaction="manual",
        )
        for rid, text, _creators, supporters in _EVENTS:
            segmented.observe(rid, text, supporters)
        before = [_served_exactly(segmented, need) for need in _NEEDS]
        assert segmented.segmented_index.compact(full=True) == 1
        assert segmented.index_stats.segments == 1
        assert [_served_exactly(segmented, need) for need in _NEEDS] == before


class TestRandomizedPrunedStream:
    """A seeded random interleaved observe/query stream over a segmented
    finder, asserting the served ranking equals a monolithic cold
    rebuild at every step — with absolute windows small enough that each
    segment's kernel prunes its matches to the window cut."""

    _WORDS = (
        "swimming", "freestyle", "guitar", "rock", "song", "pool",
        "race", "chords", "practice", "training", "medal", "timing",
        "open", "water", "band", "report", "session", "splits",
    )

    def test_random_stream_pruned_matches_cold_rebuild(self, analyzer):
        rng = random.Random(1307)
        config = FinderConfig(window=None)
        segmented = ExpertFinder.build(
            _stream_graph(), _CANDIDATES, analyzer, config, seal_threshold=3,
        )
        events = []
        shapes = set()
        for step in range(18):
            rid = f"r{step}"
            text = " ".join(rng.choices(self._WORDS, k=rng.randint(4, 9)))
            # creator links in the rebuilt graph put candidates at
            # distance 1, so the streamed supporters must say the same
            supporters = [
                (pid, 1)
                for pid in rng.sample(_CANDIDATES, rng.randint(1, 3))
            ]
            events.append((rid, text, supporters))
            segmented.observe(rid, text, supporters)
            graph = _stream_graph()
            for erid, etext, esupporters in events:
                graph.add_resource(Resource(
                    resource_id=erid, platform=Platform.TWITTER, text=etext
                ))
                for pid, _ in esupporters:
                    graph.link_resource(pid, erid, RelationKind.CREATES)
            rebuilt = ExpertFinder.build(graph, _CANDIDATES, analyzer, config)
            need = " ".join(rng.choices(self._WORDS, k=2))
            window = rng.choice((1, 2, 5, None, 0.5))
            shapes.add(type(window))
            expected = rebuilt.find_experts(need, window=window)
            assert segmented.find_experts(need, window=window) == expected
            assert oracle_experts(segmented, need, window=window) == expected
        assert shapes == {int, float, type(None)}  # cut and uncut windows ran
        assert segmented.index_stats.seals >= 1


class TestSegmentedFinderSurface:
    def test_observe_does_not_recompile_anything(self, analyzer):
        # after an observe the next query must not rebuild compiled
        # state: the sealed segments survive untouched and the resource
        # waits in the write buffer
        finder = ExpertFinder.build(
            _stream_graph(), _CANDIDATES, analyzer, FinderConfig(window=None),
        )
        segments = finder.segmented_index.iter_segments()
        assert len(segments) == 1
        finder.observe("s1", "more freestyle swimming drills", [("bob", 1)])
        assert finder.index_stats.buffered == 1
        assert finder.find_experts("freestyle swimming") != []
        assert finder.segmented_index.iter_segments() == segments

    def test_index_stats_surface(self, analyzer, finder):
        stats = finder.index_stats
        assert stats.segments == 1  # the cold build's base segment
        assert stats.buffered == 0
        assert stats.documents == finder.indexed_resources
        segmented = ExpertFinder.build(
            _stream_graph(), _CANDIDATES, analyzer, FinderConfig(window=None),
            seal_threshold=1,
        )
        segmented.observe("s1", "more freestyle swimming drills", [("bob", 1)])
        stats = segmented.index_stats
        assert stats.seals == 1
        assert stats.buffered == 0
        assert stats.documents == segmented.indexed_resources

    def test_build_rejects_unknown_index_mode(self, analyzer):
        # every finder is a segmented index: the layout option is gone
        with pytest.raises(TypeError, match="index_mode"):
            ExpertFinder.build(
                _stream_graph(), _CANDIDATES, analyzer, FinderConfig(),
                index_mode="segmented",
            )
        with pytest.raises(TypeError, match="index_mode"):
            ExpertFinder.from_stream(
                _CANDIDATES, [], analyzer, FinderConfig(), index_mode="monolithic",
            )
