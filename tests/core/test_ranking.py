"""Unit tests for the expert ranker."""

import pytest

from repro.core.config import FinderConfig
from repro.core.ranking import ExpertScore
from tests.reference.ranking import ExpertRanker
from tests.reference.vsm import ResourceMatch


def _match(doc_id: str, score: float) -> ResourceMatch:
    return ResourceMatch(doc_id=doc_id, score=score, term_score=score, entity_score=0.0)


EVIDENCE = {
    "r1": [("alice", 0)],
    "r2": [("alice", 1), ("bob", 1)],
    "r3": [("bob", 2)],
    "r4": [("carol", 2)],
}


class TestRank:
    def test_orders_by_score(self):
        ranker = ExpertRanker(EVIDENCE, FinderConfig(window=None))
        matches = [_match("r1", 5.0), _match("r2", 3.0), _match("r3", 1.0)]
        ranked = ranker.rank(matches)
        assert [e.candidate_id for e in ranked] == ["alice", "bob"]
        assert ranked[0].score == pytest.approx(5.0 * 1.0 + 3.0 * 0.75)
        assert ranked[1].score == pytest.approx(3.0 * 0.75 + 1.0 * 0.5)

    def test_window_cuts_tail(self):
        ranker = ExpertRanker(EVIDENCE, FinderConfig(window=1))
        matches = [_match("r1", 5.0), _match("r4", 4.0)]
        ranked = ranker.rank(matches)
        # only r1 inside the window → carol never appears
        assert [e.candidate_id for e in ranked] == ["alice"]

    def test_supporting_resource_counts(self):
        ranker = ExpertRanker(EVIDENCE, FinderConfig(window=None))
        ranked = ranker.rank([_match("r2", 1.0), _match("r3", 1.0)])
        by_id = {e.candidate_id: e for e in ranked}
        assert by_id["bob"].supporting_resources == 2
        assert by_id["alice"].supporting_resources == 1

    def test_deterministic_tie_break_by_id(self):
        ranker = ExpertRanker({"r": [("zed", 1), ("amy", 1)]}, FinderConfig(window=None))
        ranked = ranker.rank([_match("r", 1.0)])
        assert [e.candidate_id for e in ranked] == ["amy", "zed"]

    def test_empty_matches(self):
        ranker = ExpertRanker(EVIDENCE, FinderConfig())
        assert ranker.rank([]) == []

    def test_normalized_variant(self):
        config = FinderConfig(window=None, normalize=True)
        ranker = ExpertRanker(EVIDENCE, config)
        ranked = ranker.rank([_match("r2", 4.0), _match("r3", 2.0)])
        by_id = {e.candidate_id: e for e in ranked}
        # bob: (4*0.75 + 2*0.5)/2 ; alice: (4*0.75)/1
        assert by_id["bob"].score == pytest.approx(2.0)
        assert by_id["alice"].score == pytest.approx(3.0)

    def test_expert_score_requires_positive(self):
        with pytest.raises(ValueError):
            ExpertScore(candidate_id="x", score=0.0, supporting_resources=1)
