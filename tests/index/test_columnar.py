"""Tests for the compiled segment path: the numpy Eq. 1 kernel.

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
from tests.oracle import oracle_experts

ALPHAS = (0.0, 0.6, 1.0)
WINDOWS = (None, 1, 10, 0.5, 1.0)

_VOCAB = (
    "swimming freestyle pool race training guitar rock chords song stage "
    "pasta recipe kitchen sauce pizza tennis serve match espresso milan "
    "python compiler index query engine medal water band tour olympic"
).split()


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
            with pytest.raises(ValueError, match="top_k"):
                tiny_finder.find_experts_many([need], top_k=top_k)
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
        broken = {doc: [("a", 99)] for doc in finder.evidence_of}
        term_index, entity_index, _ = finder.segmented_index.merged_slice()
        with pytest.raises(ValueError, match="distance"):
            SegmentedIndex.from_built(
                term_index, entity_index, broken, finder.config
            )



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
        full = sorted(segment.score(terms, entities, alpha, None))
        tie_score = full[2][0]  # negated, as the kernel emits it
        tied = [doc for neg, doc in full if neg == tie_score]
        assert len(tied) == 12 and full[1][0] < tie_score < full[-1][0]
        cut = window_cut(alpha, window)
        hits = segment.score(terms, entities, alpha, cut)
        if cut is None:
            assert sorted(hits) == full
        else:
            assert hits == full[:cut]
            kept = [doc for neg, doc in hits if neg == tie_score]
            assert kept == tied[: len(kept)]  # the lowest tied doc indexes
        ranked_exactly(tie_finder, self._NEED, window=window)
