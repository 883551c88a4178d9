"""Tests for the experiment runner over the TINY dataset."""

import pytest

from repro.core.config import PAPER_CONFIG, FinderConfig
from repro.evaluation.runner import EvaluationResult, ExperimentRunner, evaluate_finder
from repro.experiments import fig6_window
from repro.experiments.context import ExperimentContext
from repro.socialgraph.metamodel import Platform


@pytest.fixture(scope="module")
def result(tiny_context):
    return tiny_context.runner.run(None, FinderConfig())


class TestRun:
    def test_one_outcome_per_query(self, result, tiny_context):
        assert len(result.outcomes) == len(tiny_context.dataset.queries)

    def test_rankings_contain_only_candidates(self, result, tiny_context):
        person_ids = set(tiny_context.dataset.person_ids)
        for outcome in result.outcomes:
            assert set(outcome.ranking) <= person_ids

    def test_no_duplicate_candidates_in_ranking(self, result):
        for outcome in result.outcomes:
            assert len(outcome.ranking) == len(set(outcome.ranking))

    def test_summary_bounds(self, result):
        summary = result.summary()
        for value in summary.as_row():
            assert 0.0 <= value <= 1.0

    def test_finder_cache_reused(self, tiny_context):
        runner = tiny_context.runner
        f1 = runner.finder(Platform.TWITTER, FinderConfig())
        f2 = runner.finder(Platform.TWITTER, FinderConfig(alpha=0.2))
        assert f1 is f2  # alpha does not affect the index
        f3 = runner.finder(Platform.TWITTER, FinderConfig(max_distance=1))
        assert f3 is not f1
        # the other rank-time fields are not passed per query, so each
        # gets its own finder built with it
        for config in (
            FinderConfig(normalize=True),
            FinderConfig(weight_interval=(1.0, 1.0)),
        ):
            own = runner.finder(Platform.TWITTER, config)
            assert own is not f1
            assert own.config == config
        paper = runner.finder(Platform.TWITTER, FinderConfig(alpha=0.2))
        assert paper is f1
        assert paper.config == PAPER_CONFIG

    def test_subset_of_queries(self, tiny_context):
        queries = tiny_context.dataset.queries[:3]
        result = tiny_context.runner.run(None, FinderConfig(), queries=queries)
        assert len(result.outcomes) == 3


class TestEvaluateFinder:
    def test_ranking_only_finder_reports_retrieved_size(self, tiny_context):
        """A wrapper exposing only find_experts, as the baselines do,
        evaluates like run()."""

        class RankingOnly:
            def __init__(self, inner):
                self._inner = inner

            def find_experts(self, need):
                return self._inner.find_experts(need)

        dataset = tiny_context.dataset
        finder = tiny_context.runner.finder(None, FinderConfig())
        queries = dataset.queries[:3]
        result = evaluate_finder(dataset, RankingOnly(finder), queries)
        assert result == tiny_context.runner.run(None, FinderConfig(), queries=queries)

    def test_paper_finder_ignores_earlier_sweeps(self, tiny_dataset):
        """The Fig. 6 sweep (α = 0.5, fractional windows) runs first on
        a fresh runner; the paper-config finder it leaves cached must
        still rank with the paper's α and window."""
        runner = ExperimentRunner(tiny_dataset)
        fig6_window.run(ExperimentContext(dataset=tiny_dataset, runner=runner))
        result = evaluate_finder(tiny_dataset, runner.finder(None, FinderConfig()))
        expected = ExperimentRunner(tiny_dataset).run(None, FinderConfig())
        assert result.summary() == expected.summary()
        assert result == expected


class TestEvaluationResult:
    def test_by_domain_partition(self, result):
        by_domain = result.by_domain()
        total = sum(len(r.outcomes) for r in by_domain.values())
        assert total == len(result.outcomes)
        assert set(by_domain) == {o.need.domain for o in result.outcomes}

    def test_eleven_point_curve_shape(self, result):
        curve = result.eleven_point_curve()
        assert len(curve) == 11
        assert all(0.0 <= v <= 1.0 for v in curve)

    def test_dcg_curve_monotone(self, result):
        curve = result.dcg_curve((5, 10, 15, 20))
        assert list(curve) == sorted(curve)

    def test_expert_deltas_length(self, result):
        assert len(result.expert_deltas()) == len(result.outcomes)

    def test_user_f1_bounds(self, result, tiny_context):
        f1 = result.user_f1(tiny_context.dataset.person_ids)
        assert set(f1) == set(tiny_context.dataset.person_ids)
        assert all(0.0 <= v <= 1.0 for v in f1.values())

    def test_empty_result(self):
        empty = EvaluationResult(outcomes=[])
        assert empty.summary().map == 0.0
        assert empty.eleven_point_curve() == tuple([0.0] * 11)


class TestQueryOutcome:
    def test_retrieved_delta(self, result):
        outcome = result.outcomes[0]
        assert outcome.retrieved_delta == len(outcome.ranking) - len(outcome.relevant)

    def test_metric_properties_consistent(self, result):
        from repro.evaluation.metrics import average_precision

        outcome = result.outcomes[0]
        assert outcome.ap == average_precision(outcome.ranking, outcome.relevant)
