"""Unit tests for Eq.-3 scoring helpers."""

import pytest

from repro.core.config import FinderConfig
from repro.core.scoring import distance_weight, window_size
from tests.reference.ranking import ExpertRanker, apply_window
from tests.reference.vsm import ResourceMatch


def _match(doc_id: str, score: float) -> ResourceMatch:
    return ResourceMatch(doc_id=doc_id, score=score, term_score=score, entity_score=0.0)


class TestDistanceWeight:
    def test_paper_setting(self):
        assert [distance_weight(d, 2) for d in (0, 1, 2)] == [1.0, 0.75, 0.5]

    def test_max_distance_one(self):
        assert distance_weight(0, 1) == 1.0
        assert distance_weight(1, 1) == 0.5

    def test_max_distance_zero(self):
        assert distance_weight(0, 0) == 1.0

    def test_custom_interval(self):
        assert distance_weight(2, 2, (0.1, 1.0)) == pytest.approx(0.1)

    def test_constant_interval(self):
        assert distance_weight(1, 2, (1.0, 1.0)) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            distance_weight(3, 2)
        with pytest.raises(ValueError):
            distance_weight(-1, 2)


class TestWindowSize:
    def test_absolute(self):
        assert window_size(100, 5000) == 100

    def test_absolute_capped(self):
        assert window_size(100, 30) == 30

    def test_fraction(self):
        assert window_size(0.1, 5000) == 500

    def test_fraction_rounds_up(self):
        assert window_size(0.01, 150) == 2

    def test_fraction_at_least_one(self):
        assert window_size(0.01, 5) == 1

    def test_none_means_all(self):
        assert window_size(None, 42) == 42

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            window_size(10, -1)

    def test_bool_rejected(self):
        # bool is an int subclass; window=True used to silently mean 1
        with pytest.raises(ValueError):
            window_size(True, 100)
        with pytest.raises(ValueError):
            window_size(False, 100)

    def test_fraction_above_one_rejected(self):
        # window=2.0 used to silently mean "all matches"
        with pytest.raises(ValueError):
            window_size(2.0, 100)

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError):
            window_size(0.0, 100)

    def test_non_positive_int_rejected(self):
        with pytest.raises(ValueError):
            window_size(-5, 100)
        with pytest.raises(ValueError):
            window_size(0, 100)

    def test_fraction_of_one_keeps_all(self):
        assert window_size(1.0, 42) == 42


class TestApplyWindow:
    def test_keeps_top(self):
        matches = [_match(f"d{i}", 10.0 - i) for i in range(10)]
        kept = apply_window(matches, 3)
        assert [m.doc_id for m in kept] == ["d0", "d1", "d2"]

    def test_none_keeps_all(self):
        matches = [_match("a", 1.0)]
        assert len(apply_window(matches, None)) == 1


class TestAggregate:
    """Eq. 3 as the reference ranker folds it (max distance 2)."""

    @staticmethod
    def _scores(matches, evidence, **config):
        ranker = ExpertRanker(evidence, FinderConfig(window=None, **config))
        return {e.candidate_id: e.score for e in ranker.rank(matches)}

    def test_eq3_single_candidate(self):
        matches = [_match("r1", 2.0), _match("r2", 1.0)]
        evidence = {"r1": [("alice", 1)], "r2": [("alice", 2)]}
        scores = self._scores(matches, evidence)
        assert scores["alice"] == pytest.approx(2.0 * 0.75 + 1.0 * 0.5)

    def test_shared_resource_credits_all(self):
        matches = [_match("r1", 4.0)]
        evidence = {"r1": [("alice", 1), ("bob", 2)]}
        scores = self._scores(matches, evidence)
        assert scores["alice"] == pytest.approx(3.0)
        assert scores["bob"] == pytest.approx(2.0)

    def test_unmatched_resource_ignored(self):
        matches = [_match("ghost", 1.0)]
        scores = self._scores(matches, {})
        assert scores == {}

    def test_custom_interval(self):
        matches = [_match("r1", 1.0)]
        evidence = {"r1": [("alice", 2)]}
        scores = self._scores(matches, evidence, weight_interval=(1.0, 1.0))
        assert scores["alice"] == pytest.approx(1.0)
