"""Tests for the compiled segment path: the numpy Eq. 1 kernel and the
columnar Eq. 3 fold.

The contract under test is *byte-identical equivalence*: for any
collection and any (α, window, top_k), the served path
(:class:`~repro.index.segments.SegmentedIndex` scoring its compiled
segment columns with :meth:`~repro.index.segments.Segment.score`) must
return exactly the ranking of the oracle (``VectorSpaceRetriever`` +
``ExpertRanker`` in ``tests/oracle.py``: same scores bit for bit, same
support counts, same tie-breaks). Equivalence is asserted with ``==``
on the ``ExpertScore`` lists, which compares the float scores exactly,
not approximately.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.index.segments import SegmentedIndex, window_cut
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import Platform, RelationKind, Resource, UserProfile
from tests.oracle import evidence_of, oracle_experts

ALPHAS = (0.0, 0.6, 1.0)
WINDOWS = (None, 1, 10, 0.5, 1.0)

_VOCAB = (
    "swimming freestyle pool race training guitar rock chords song stage "
    "pasta recipe kitchen sauce pizza tennis serve match espresso milan "
    "python compiler index query engine medal water band tour olympic"
).split()


def _pairs(hits):
    """A segment's ``(scores, doc indexes)`` arrays as ``(-score, doc
    index)`` pairs, in the order the kernel returned them."""
    scores, docs = hits
    return list(zip((-scores).tolist(), docs.tolist()))


def ranked_exactly(finder, need, **kwargs):
    """Rank *need* on the served path, assert exact equality with the
    oracle, return it."""
    reference = oracle_experts(finder, need, **kwargs)
    result = finder.find_experts(need, **kwargs)
    assert result == reference
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
            ranked_exactly(tiny_finder, need.text, alpha=alpha)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_window_sweep(self, tiny_finder, tiny_dataset, window):
        for need in tiny_dataset.queries[:8]:
            ranked_exactly(tiny_finder, need.text, window=window)

    def test_configured_defaults(self, tiny_finder, tiny_dataset):
        for need in tiny_dataset.queries:
            ranked_exactly(tiny_finder, need.text)

    def test_top_k_prefixes(self, tiny_finder, tiny_dataset):
        need = tiny_dataset.queries[0].text
        full = ranked_exactly(tiny_finder, need)
        for k in (0, 1, 3, len(full), len(full) + 5):
            assert ranked_exactly(tiny_finder, need, top_k=k) == full[:k]


class TestEquivalenceRandomized:
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_random_collections(self, analyzer, seed):
        finder, rng = build_random_finder(analyzer, seed)
        for _ in range(12):
            need = " ".join(rng.choices(_VOCAB, k=rng.randint(1, 4)))
            ranked_exactly(
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
            ranked_exactly(finder, " ".join(rng.choices(_VOCAB, k=3)))

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
        ranked = ranked_exactly(finder, "freestyle swimming")
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
        # repeated + interleaved queries on one finder must not leak
        # accumulator state between calls
        needs = [n.text for n in tiny_dataset.queries[:4]]
        first = [tiny_finder.find_experts(n) for n in needs]
        again = [tiny_finder.find_experts(n) for n in reversed(needs)]
        assert again == list(reversed(first))

    def test_validation_parity(self, tiny_finder, tiny_dataset):
        need = tiny_dataset.queries[0].text
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
        assert tiny_finder.find_experts(need, top_k=0) == []

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
        broken = [
            (analyzer.analyze(doc, "some text here"), (("a", 99),), True)
            for doc in evidence_of(finder)
        ]
        with pytest.raises(ValueError, match="distance"):
            SegmentedIndex.from_built(broken, finder.config)



class TestKernelCut:
    """The per-segment window cut on ties: more documents share the
    boundary score than the window keeps, and the cut must keep the
    lowest doc indexes among them — what a full ``(-score, doc)`` sort
    keeps, and what ``argpartition`` alone would not guarantee."""

    #: twelve identical documents beside three distinct ones: one scores
    #: below the tie and sorts before it, two score above it and sort
    #: after it — the layout on which argpartition alone keeps the wrong
    #: tied documents
    _EVENTS = (
        [(f"tie{i:02d}", "freestyle swimming race", [(f"c{i:02d}", 1)])
         for i in range(12)]
        + [
            ("z-top", "freestyle swimming race freestyle swimming", [("c12", 1)]),
            ("z-high", "freestyle freestyle swimming race race", [("c13", 2)]),
            ("a-low", "swimming pool", [("c14", 1)]),
        ]
    )
    _NEED = "freestyle swimming race"

    @pytest.fixture(scope="class")
    def tie_finder(self, analyzer):
        return ExpertFinder.from_stream(
            [f"c{i:02d}" for i in range(15)],
            [(*event, "en") for event in self._EVENTS],
            analyzer,
            FinderConfig(window=None),
        )

    @pytest.mark.parametrize("window", (1, 5, 11, 12, 13, 0.5, None))
    def test_ties_at_the_boundary_keep_the_lowest_doc_indexes(
        self, tie_finder, window
    ):
        index = tie_finder.segmented_index
        (segment,) = index.iter_segments()
        query = tie_finder._analyzer.analyze("__query__", self._NEED, language="en")
        alpha = tie_finder.config.alpha
        terms, entities = index._query_weights(query, alpha)
        full = sorted(_pairs(segment.score(terms, entities, alpha, None)))
        tie_score = full[2][0]  # negated by _pairs
        tied = [doc for neg, doc in full if neg == tie_score]
        assert len(tied) == 12 and full[1][0] < tie_score < full[-1][0]
        cut = window_cut(alpha, window)
        hits = _pairs(segment.score(terms, entities, alpha, cut))
        if cut is None:
            assert sorted(hits) == full
        else:
            assert hits == full[:cut]
            kept = [doc for neg, doc in hits if neg == tie_score]
            assert kept == tied[: len(kept)]  # the lowest tied doc indexes
        ranked_exactly(tie_finder, self._NEED, window=window)


class TestColumnarFold:
    """The window merge and the Eq. 3 fold over the segments' evidence
    columns: score ties across sources break on doc id, each
    candidate's rows are summed in rank order, and candidate ties rank
    on candidate id, whichever source the rows came from."""

    _TIED = "freestyle swimming race"

    @staticmethod
    def _stream(analyzer, events, candidates, **kwargs):
        return ExpertFinder.from_stream(
            candidates,
            [(*event, "en") for event in events],
            analyzer,
            FinderConfig(window=None),
            **kwargs,
        )

    def _assert_ties_merge_on_doc_id(self, finder):
        """Every window over the tied documents, asserted against the
        oracle; the None window first proves they all tie."""
        full = ranked_exactly(finder, self._TIED)
        assert len({e.score for e in full}) == 1 and len(full) >= 6
        for window in (1, 2, 3, 4, 5, 0.5, None):
            for top_k in (0, 1, None):
                ranked_exactly(finder, self._TIED, window=window, top_k=top_k)

    def test_boundary_ties_split_between_buffer_and_segment(self, analyzer):
        # tied documents whose ids interleave across the sealed base
        # (a, c, e) and the write buffer (b, d, f)
        cands = [f"c{i}" for i in range(6)]
        finder = self._stream(
            analyzer,
            [(f"tie-{x}", self._TIED, [(c, 1)]) for x, c in zip("ace", cands)],
            cands,
        )
        for x, c in zip("bdf", cands[3:]):
            finder.observe(f"tie-{x}", self._TIED, [(c, 1)], language="en")
        stats = finder.index_stats
        assert (stats.segments, stats.buffered) == (1, 3)
        self._assert_ties_merge_on_doc_id(finder)

    def test_boundary_ties_split_between_two_segments(self, analyzer):
        # the observed half seals into a second segment (threshold 3)
        cands = [f"c{i}" for i in range(6)]
        finder = self._stream(
            analyzer,
            [(f"tie-{x}", self._TIED, [(c, 1)]) for x, c in zip("bdf", cands)],
            cands,
            seal_threshold=3,
            compaction="manual",
        )
        for x, c in zip("ace", cands[3:]):
            finder.observe(f"tie-{x}", self._TIED, [(c, 1)], language="en")
        stats = finder.index_stats
        assert (stats.segments, stats.buffered) == (2, 0)
        self._assert_ties_merge_on_doc_id(finder)

    def _ties_across_three_sources(self, analyzer, observed):
        """Tied documents whose ids interleave across three sources: the
        sealed base (a, d, g), a segment the observes seal at threshold
        3 (b, e, h) and the write buffer, which holds the last two of
        *observed* in that arrival order."""
        cands = [f"c{i}" for i in range(8)]
        finder = self._stream(
            analyzer,
            [(f"tie-{x}", self._TIED, [(c, 1)]) for x, c in zip("adg", cands)],
            cands,
            seal_threshold=3,
            compaction="manual",
        )
        for x, c in zip(observed, cands[3:]):
            finder.observe(f"tie-{x}", self._TIED, [(c, 1)], language="en")
        segments = finder.segmented_index.iter_segments()
        assert [segment.doc_ids for segment in segments] == [
            ["tie-a", "tie-d", "tie-g"],
            ["tie-b", "tie-e", "tie-h"],
        ]
        assert finder.segmented_index.write_buffer.resources == [
            f"tie-{x}" for x in observed[3:]
        ]
        self._assert_ties_merge_on_doc_id(finder)
        for need in (self._TIED, "swimming", "race"):
            assert finder.find_experts(need, window=3) == (
                oracle_experts(finder, need, window=3)
            )

    def test_boundary_ties_split_across_segments_and_the_buffer(self, analyzer):
        self._ties_across_three_sources(analyzer, "behcf")

    def test_boundary_ties_across_sources_with_a_reversed_buffer(self, analyzer):
        # the buffer's doc indexes follow arrival (f before c), so its
        # ties and its share of the window must follow doc-id rank
        self._ties_across_three_sources(analyzer, "behfc")

    @pytest.mark.parametrize("normalize", (False, True))
    def test_equal_totals_rank_on_candidate_id(self, analyzer, normalize):
        # "zoe" has evidence from the cold build, "abe" gets its first
        # row through observe; both are supported by the same matching
        # resources at the same distances, so their totals are equal and
        # "abe" must rank first although the table met "zoe" first
        finder = ExpertFinder.from_stream(
            ("zoe", "abe", "kim"),
            [("t0", "rock guitar chords", [("zoe", 1)], "en")],
            analyzer,
            FinderConfig(window=None, normalize=normalize),
        )
        finder.observe("t1", "freestyle swimming race", [("zoe", 1), ("abe", 1)],
                       language="en")
        finder.observe("t2", "freestyle swimming medal", [("abe", 2), ("zoe", 2)],
                       language="en")
        finder.observe("t3", "swimming pool", [("kim", 0)], language="en")
        for window in (1, 2, 0.5, None):
            ranked = ranked_exactly(finder, "freestyle swimming", window=window)
            assert [e.candidate_id for e in ranked][:2] == ["abe", "zoe"]
            assert ranked[0].score == ranked[1].score
        finder.segmented_index.seal()
        ranked_exactly(finder, "freestyle swimming")

    @pytest.mark.parametrize("normalize", (False, True))
    def test_rows_fold_in_rank_order(self, analyzer, normalize):
        # one candidate supported by many documents of distinct scores,
        # streamed in an order unlike their rank and id orders, at mixed
        # distances: its float total depends on the summation order
        rng = random.Random(5)
        words = ["swimming"] * 6 + ["race"] * 3 + ["pool", "medal", "water"]
        events = []
        for i in rng.sample(range(16), 16):
            text = " ".join(rng.choices(words, k=rng.randint(1, 9)))
            events.append((f"d{i:02d}", text, [("solo", rng.randint(0, 2)),
                                                (f"c{i % 3}", 1)]))
        finder = ExpertFinder.from_stream(
            ("solo", "c0", "c1", "c2"),
            [(*event, "en") for event in events],
            analyzer,
            FinderConfig(window=None, normalize=normalize),
            seal_threshold=5,
            compaction="manual",
        )
        for i in range(16, 24):
            text = " ".join(rng.choices(words, k=rng.randint(1, 9)))
            finder.observe(f"d{i:02d}", text, [("solo", rng.randint(0, 2))],
                           language="en")
        for window in (3, 7, 12, 0.75, None):
            ranked_exactly(finder, "swimming race pool", window=window)

    def test_evidence_only_segment_and_observed_candidate(self, analyzer):
        # a sealed segment of evidence-only (language-cut) resources adds
        # rows and a candidate that sorts before every other one, but no
        # document; the fold must still number candidates by id
        cands = ("bob", "cat", "aaron")
        finder = ExpertFinder.from_stream(
            cands,
            [(f"en{i}", "freestyle swimming race", [("bob", 1), ("cat", 2)], "en")
             for i in range(3)],
            analyzer,
            FinderConfig(window=None),
            seal_threshold=2,
            compaction="manual",
        )
        italian = "questa e una bella giornata per andare in piscina con gli amici"
        for i in range(2):
            assert not finder.observe(f"it{i}", italian, [("aaron", 0)])
        segments = finder.segmented_index.iter_segments()
        assert [s.document_count for s in segments] == [3, 0]
        assert segments[1].candidates == ["aaron"]
        finder.observe("en9", "swimming race", [("aaron", 1)], language="en")
        for window in (1, 2, 0.5, None):
            ranked_exactly(finder, "freestyle swimming race", window=window)
