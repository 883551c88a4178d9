"""Tests for the columnar engines: the compiled segment path.

The contract under test is *byte-identical equivalence*: for any
collection and any (α, window, top_k), the "columnar" engine
(:class:`~repro.index.segments.SegmentedIndex` scoring its compiled
segment columns) must return exactly the ranking of the oracle
(``VectorSpaceRetriever`` + ``ExpertRanker`` in ``tests/oracle.py``:
same scores bit for bit, same support counts, same tie-breaks) — in
both its exhaustive and its block-max pruned ("columnar-pruned")
evaluation modes. Equivalence is
asserted with ``==`` on the ``ExpertScore`` lists, which compares the
float scores exactly, not approximately.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.blockmax import PruningStats
from repro.index.segments import Segment, SegmentedIndex
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import Platform, RelationKind, Resource, UserProfile
from tests.oracle import oracle_experts

ALPHAS = (0.0, 0.6, 1.0)
WINDOWS = (None, 1, 10, 0.5, 1.0)

_VOCAB = (
    "swimming freestyle pool race training guitar rock chords song stage "
    "pasta recipe kitchen sauce pizza tennis serve match espresso milan "
    "python compiler index query engine medal water band tour olympic"
).split()


def both_engines(finder, need, **kwargs):
    """Rank *need* on both engines, assert exact equality with the
    oracle, return it. "columnar-pruned" rides along on every
    equivalence assertion in this module — absolute windows exercise
    the block-max path, every other window shape its exhaustive
    fallback."""
    reference = oracle_experts(finder, need, **kwargs)
    finder.engine = "columnar"
    result = finder.find_experts(need, **kwargs)
    assert result == reference
    finder.engine = "columnar-pruned"
    pruned = finder.find_experts(need, **kwargs)
    assert pruned == reference
    return result


def build_random_finder(analyzer, seed, *, config=None):
    """A finder over a small seeded-random collection: random texts,
    random multi-supporter evidence at random distances (streamed via
    ``observe``, which accepts arbitrary distance structure)."""
    rng = random.Random(seed)
    candidates = [f"cand{i}" for i in range(rng.randint(3, 6))]
    g = SocialGraph(Platform.TWITTER)
    for cid in candidates:
        g.add_profile(
            UserProfile(profile_id=cid, platform=Platform.TWITTER, display_name=cid)
        )
    g.add_resource(
        Resource(resource_id="seed", platform=Platform.TWITTER,
                 text=" ".join(rng.choices(_VOCAB, k=8)), language="en")
    )
    g.link_resource(candidates[0], "seed", RelationKind.CREATES)
    finder = ExpertFinder.build(
        g, candidates, analyzer, config or FinderConfig(window=None)
    )
    for i in range(rng.randint(20, 40)):
        supporters = [
            (cid, rng.randint(0, finder.config.max_distance))
            for cid in rng.sample(candidates, k=rng.randint(1, 3))
        ]
        finder.observe(
            f"r{i}",
            " ".join(rng.choices(_VOCAB, k=rng.randint(3, 12))),
            supporters,
            language="en",
        )
    return finder, rng


@pytest.fixture(scope="module")
def tiny_finder(tiny_dataset):
    """A private finder over the TINY dataset (queries carry entities)."""
    return ExpertFinder.build(
        tiny_dataset.graph_for(None),
        tiny_dataset.candidates_for(None),
        tiny_dataset.analyzer,
        FinderConfig(),
        corpus=tiny_dataset.corpus,
    )


class TestEquivalenceTiny:
    """Exact equality on the TINY dataset (real entity annotations)."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_alpha_sweep(self, tiny_finder, tiny_dataset, alpha):
        for need in tiny_dataset.queries[:8]:
            both_engines(tiny_finder, need.text, alpha=alpha)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_window_sweep(self, tiny_finder, tiny_dataset, window):
        for need in tiny_dataset.queries[:8]:
            both_engines(tiny_finder, need.text, window=window)

    def test_configured_defaults(self, tiny_finder, tiny_dataset):
        for need in tiny_dataset.queries:
            both_engines(tiny_finder, need.text)

    def test_top_k_prefixes(self, tiny_finder, tiny_dataset):
        need = tiny_dataset.queries[0].text
        full = both_engines(tiny_finder, need)
        for k in (0, 1, 3, len(full), len(full) + 5):
            assert both_engines(tiny_finder, need, top_k=k) == full[:k]


class TestEquivalenceRandomized:
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_random_collections(self, analyzer, seed):
        finder, rng = build_random_finder(analyzer, seed)
        for _ in range(12):
            need = " ".join(rng.choices(_VOCAB, k=rng.randint(1, 4)))
            both_engines(
                finder,
                need,
                alpha=rng.choice(ALPHAS),
                window=rng.choice(WINDOWS),
            )

    def test_normalized_config(self, analyzer):
        finder, rng = build_random_finder(
            analyzer, 11, config=FinderConfig(window=None, normalize=True)
        )
        for _ in range(6):
            both_engines(finder, " ".join(rng.choices(_VOCAB, k=3)))

    def test_score_ties_break_identically(self, analyzer):
        # two candidates supported by the same resources at the same
        # distances have bit-identical scores; the order must fall back
        # to candidate id on both paths
        g = SocialGraph(Platform.TWITTER)
        for cid in ("zoe", "abe"):
            g.add_profile(
                UserProfile(profile_id=cid, platform=Platform.TWITTER, display_name=cid)
            )
        g.add_resource(
            Resource(resource_id="t1", platform=Platform.TWITTER,
                     text="freestyle swimming training", language="en")
        )
        g.link_resource("zoe", "t1", RelationKind.CREATES)
        finder = ExpertFinder.build(g, ("zoe", "abe"), analyzer, FinderConfig(window=None))
        finder.observe("t2", "freestyle swimming race", [("zoe", 1), ("abe", 1)],
                       language="en")
        finder.observe("t3", "freestyle swimming medal", [("abe", 1), ("zoe", 1)],
                       language="en")
        ranked = both_engines(finder, "freestyle swimming")
        tied = [e.candidate_id for e in ranked if e.score == ranked[0].score]
        assert tied == sorted(tied)


class TestEngineBehavior:
    def test_compile_introspection(self, tiny_finder):
        # a cold build compiles exactly one sealed segment and leaves
        # the write buffer empty
        (segment,) = tiny_finder.segmented_index.iter_segments()
        assert segment.document_count == tiny_finder.indexed_resources
        assert segment.resource_count >= segment.document_count
        assert tiny_finder.index_stats.buffered == 0

    def test_scratch_reuse_is_clean(self, tiny_finder, tiny_dataset):
        # repeated + interleaved queries on one engine instance must not
        # leak accumulator state between calls
        needs = [n.text for n in tiny_dataset.queries[:4]]
        tiny_finder.engine = "columnar"
        first = [tiny_finder.find_experts(n) for n in needs]
        again = [tiny_finder.find_experts(n) for n in reversed(needs)]
        assert again == list(reversed(first))

    def test_validation_parity(self, tiny_finder, tiny_dataset):
        need = tiny_dataset.queries[0].text
        for engine in ("columnar", "columnar-pruned"):
            tiny_finder.engine = engine
            with pytest.raises(ValueError):
                tiny_finder.find_experts(need, alpha=1.5)
            with pytest.raises(ValueError):
                tiny_finder.find_experts(need, alpha=-0.1)
            with pytest.raises(ValueError):
                tiny_finder.find_experts(need, window=0)
            with pytest.raises(ValueError):
                tiny_finder.find_experts(need, window=1.5)
            with pytest.raises(ValueError):
                tiny_finder.find_experts(need, window=True)
            # top_k: None or a non-negative int, never a bool or a float
            for top_k in (-1, True, False, 1.5, "3"):
                with pytest.raises(ValueError, match="top_k"):
                    tiny_finder.find_experts(need, top_k=top_k)
                with pytest.raises(ValueError, match="top_k"):
                    tiny_finder.find_experts_many([need], top_k=top_k)
            assert tiny_finder.find_experts(need, top_k=0) == []
        tiny_finder.engine = "columnar"

    def test_compile_rejects_out_of_range_distance(self, analyzer):
        g = SocialGraph(Platform.TWITTER)
        g.add_profile(
            UserProfile(profile_id="a", platform=Platform.TWITTER, display_name="a")
        )
        g.add_resource(
            Resource(resource_id="t1", platform=Platform.TWITTER,
                     text="some text here", language="en")
        )
        g.link_resource("a", "t1", RelationKind.CREATES)
        finder = ExpertFinder.build(g, ("a",), analyzer, FinderConfig())
        broken = {doc: [("a", 99)] for doc in finder.evidence_of}
        term_index, entity_index, _ = finder.segmented_index.merged_slice()
        with pytest.raises(ValueError, match="distance"):
            SegmentedIndex.from_built(
                term_index, entity_index, broken, finder.config
            )

    def test_scratch_recovers_after_mid_query_failure(
        self, tiny_finder, tiny_dataset, monkeypatch
    ):
        index = tiny_finder.segmented_index
        analyze = tiny_finder._analyzer.analyze
        query = next(
            q
            for q in (
                analyze("__query__", n.text, language="en")
                for n in tiny_dataset.queries
            )
            if q.term_counts and q.entity_counts
        )
        expected = index.find_experts(query, alpha=0.6, window=100)

        def boom(self, uri, ew, pruned=False):
            raise RuntimeError("boom")

        for pruned in (False, True):
            # the entity leg fails after the term leg filled the
            # accumulators (and, pruned, the block bounds)
            monkeypatch.setattr(Segment, "_pruned_entity", boom)
            with pytest.raises(RuntimeError):
                index.find_experts(query, alpha=0.6, window=100, pruned=pruned)
            monkeypatch.undo()
            # the failed query dirtied the scratch mid-flight; the next
            # query must still be exact
            assert index.find_experts(
                query, alpha=0.6, window=100, pruned=pruned
            ) == expected

    def test_engine_selector_validation(self, tiny_finder):
        with pytest.raises(ValueError):
            tiny_finder.engine = "simd"
        tiny_finder.engine = "columnar-pruned"
        assert tiny_finder.engine == "columnar-pruned"
        tiny_finder.engine = "columnar"
        assert tiny_finder.engine == "columnar"


class TestBlockMaxPruning:
    """Routing and edge cases of the block-max evaluation mode; the
    ``pruned == oracle`` equality itself is asserted by every
    ``both_engines`` call in this module."""

    def _query(self, tiny_finder, tiny_dataset, index=0):
        need = tiny_dataset.queries[index].text
        return tiny_finder._analyzer.analyze("__query__", need, language="en")

    def test_absolute_windows_take_the_pruned_path(
        self, tiny_finder, tiny_dataset
    ):
        index = tiny_finder.segmented_index
        query = self._query(tiny_finder, tiny_dataset)
        stats = PruningStats()
        for window in (1, 10, 10**9):
            index.find_experts(
                query, alpha=0.6, window=window, pruned=True, stats=stats
            )
        assert stats.pruned_queries == 3
        assert stats.fallback_queries == 0
        assert stats.blocks_scanned > 0

    def test_fractional_and_none_windows_fall_back(
        self, tiny_finder, tiny_dataset
    ):
        # their width depends on the total match count, which pruning
        # never learns — they must route to the exhaustive path, and
        # loudly (counted), not silently
        index = tiny_finder.segmented_index
        query = self._query(tiny_finder, tiny_dataset)
        stats = PruningStats()
        for window in (0.25, 1.0, None):
            index.find_experts(
                query, alpha=0.6, window=window, pruned=True, stats=stats
            )
        assert stats.pruned_queries == 0
        assert stats.fallback_queries == 3
        assert stats.blocks_scanned == stats.blocks_skipped == 0

    def test_alpha_extremes_disable_one_leg(self, tiny_finder, tiny_dataset):
        # α=1.0 zeroes the entity leg's bounds, α=0.0 the term leg's —
        # both must still prune exactly (and actually skip something)
        index = tiny_finder.segmented_index
        for alpha in (0.0, 1.0):
            stats = PruningStats()
            for need in tiny_dataset.queries[:6]:
                query = tiny_finder._analyzer.analyze(
                    "__query__", need.text, language="en"
                )
                exhaustive = index.find_experts(query, alpha=alpha, window=5)
                pruned = index.find_experts(
                    query, alpha=alpha, window=5, pruned=True, stats=stats
                )
                assert pruned == exhaustive
            assert stats.blocks_skipped > 0

    def test_window_wider_than_candidate_doc_set(
        self, tiny_finder, tiny_dataset
    ):
        # the heap never fills, so no block may be skipped — and the
        # result must still equal the exhaustive ranking exactly
        index = tiny_finder.segmented_index
        query = self._query(tiny_finder, tiny_dataset)
        stats = PruningStats()
        wide = index.document_count + 100
        expected = index.find_experts(query, alpha=0.6, window=wide)
        got = index.find_experts(
            query, alpha=0.6, window=wide, pruned=True, stats=stats
        )
        assert got == expected
        assert stats.blocks_skipped == 0
        assert stats.blocks_scanned > 0

    @pytest.mark.parametrize("span", (1, 8, 4096))
    def test_block_span_never_changes_rankings(
        self, tiny_finder, tiny_dataset, span
    ):
        term_index, entity_index, _ = tiny_finder.segmented_index.merged_slice()
        index = SegmentedIndex.from_built(
            term_index,
            entity_index,
            tiny_finder.evidence_of,
            tiny_finder.config,
            block_span=span,
        )
        assert index.block_span == span
        assert index.iter_segments()[0].block_span == span
        default = tiny_finder.segmented_index
        for need in tiny_dataset.queries[:6]:
            query = tiny_finder._analyzer.analyze(
                "__query__", need.text, language="en"
            )
            assert index.find_experts(
                query, alpha=0.6, window=10, pruned=True
            ) == default.find_experts(query, alpha=0.6, window=10)

    def test_block_span_validation(self, tiny_finder):
        term_index, entity_index, _ = tiny_finder.segmented_index.merged_slice()
        with pytest.raises(ValueError, match="block_span"):
            SegmentedIndex.from_built(
                term_index,
                entity_index,
                tiny_finder.evidence_of,
                tiny_finder.config,
                block_span=0,
            )

    def test_finder_pruning_stats_accumulate(self, tiny_finder, tiny_dataset):
        tiny_finder.engine = "columnar-pruned"
        before = tiny_finder.pruning_stats.pruned_queries
        tiny_finder.find_experts(tiny_dataset.queries[0].text, window=5)
        tiny_finder.find_experts(tiny_dataset.queries[0].text, window=0.5)
        stats = tiny_finder.pruning_stats
        assert stats.pruned_queries == before + 1
        assert stats.fallback_queries >= 1
        tiny_finder.engine = "columnar"
