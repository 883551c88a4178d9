"""Unit tests for the anchor spotter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entity.knowledge_base import Entity, KnowledgeBase
from repro.entity.spotter import Spot, Spotter
from tests.text_oracle import reference_spot


@pytest.fixture
def kb():
    kb = KnowledgeBase()
    kb.add_entity(Entity("wiki/NY", "New York City", "City", "location"))
    kb.add_entity(Entity("wiki/York", "York", "City", "location"))
    kb.add_entity(Entity("wiki/Phelps", "Michael Phelps", "Athlete", "sport"))
    kb.add_anchor("new york", "wiki/NY", 5)
    kb.add_anchor("new york city", "wiki/NY", 3)
    kb.add_anchor("york", "wiki/York", 2)
    kb.add_anchor("michael phelps", "wiki/Phelps", 4)
    kb.add_anchor("phelps", "wiki/Phelps", 2)
    return kb


@pytest.fixture
def spotter(kb):
    return Spotter(kb)


class TestSpotter:
    def test_single_anchor(self, spotter):
        spots = spotter.spot(["i", "met", "phelps", "yesterday"])
        assert len(spots) == 1
        assert spots[0].surface == ("phelps",)
        assert spots[0].start == 2 and spots[0].end == 3

    def test_longest_match_wins(self, spotter):
        spots = spotter.spot(["new", "york", "city", "rocks"])
        assert len(spots) == 1
        assert spots[0].surface == ("new", "york", "city")

    def test_shorter_match_when_longer_absent(self, spotter):
        spots = spotter.spot(["visit", "york", "today"])
        assert spots[0].surface == ("york",)

    def test_non_overlapping_left_to_right(self, spotter):
        spots = spotter.spot(["michael", "phelps", "in", "new", "york"])
        assert [s.surface for s in spots] == [("michael", "phelps"), ("new", "york")]

    def test_no_anchors(self, spotter):
        assert spotter.spot(["nothing", "matches", "here"]) == []

    def test_empty_tokens(self, spotter):
        assert spotter.spot([]) == []

    def test_candidates_sorted_by_commonness(self, spotter):
        spots = spotter.spot(["phelps"])
        assert spots[0].candidates[0][0] == "wiki/Phelps"

    def test_consumed_tokens_not_reused(self, spotter):
        # "new york" consumes "york", so "york" alone is not re-spotted
        spots = spotter.spot(["new", "york"])
        assert len(spots) == 1

    def test_anchor_added_after_construction_is_spotted(self):
        kb = KnowledgeBase()
        kb.add_entity(Entity("wiki/York", "York", "City", "location"))
        kb.add_entity(Entity("wiki/NY", "New York City", "City", "location"))
        kb.add_anchor("york", "wiki/York")
        spotter = Spotter(kb)
        kb.add_anchor("new york city", "wiki/NY")
        spots = spotter.spot(["new", "york", "city"])
        assert [s.surface for s in spots] == [("new", "york", "city")]
        assert spots == Spotter(kb).spot(["new", "york", "city"])


# a small vocabulary, so anchors share first tokens and overlap
_vocab = st.sampled_from(["new", "york", "city", "fc", "milan", "the"])
_anchor = st.lists(_vocab, min_size=1, max_size=4)
_entity = st.sampled_from(["wiki/A", "wiki/B", "wiki/C"])


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        before=st.lists(st.tuples(_anchor, _entity, st.integers(1, 5)), max_size=8),
        after=st.lists(st.tuples(_anchor, _entity, st.integers(1, 5)), max_size=8),
        texts=st.lists(st.lists(_vocab, max_size=16), min_size=1, max_size=4),
    )
    def test_spots_match_the_exhaustive_greedy_scan(self, before, after, texts):
        # anchors added after the spotter was built must count too
        kb = KnowledgeBase()
        for uri in ("wiki/A", "wiki/B", "wiki/C"):
            kb.add_entity(Entity(uri, uri, "Thing", "misc"))
        for tokens, uri, count in before:
            kb.add_anchor(" ".join(tokens), uri, count)
        spotter = Spotter(kb)
        for tokens in texts:
            assert spotter.spot(tokens) == reference_spot(kb, tokens)
        for tokens, uri, count in after:
            kb.add_anchor(" ".join(tokens), uri, count)
        for tokens in texts:
            assert spotter.spot(tokens) == reference_spot(kb, tokens)
            assert spotter.spot(tuple(tokens)) == reference_spot(kb, tokens)


class TestSpotValidation:
    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            Spot(start=1, end=1, surface=("x",), candidates=(("wiki/X", 1.0),))

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            Spot(start=0, end=1, surface=("x",), candidates=())
