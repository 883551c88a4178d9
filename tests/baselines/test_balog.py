"""Unit tests for the Balog Model 1 / Model 2 baselines."""

import math

import pytest

from repro.baselines.balog import BalogConfig, CandidateModelFinder, DocumentModelFinder
from repro.extraction.crawler import CorpusAnalyzer
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import Platform, RelationKind, Resource, UserProfile


@pytest.fixture(scope="module")
def graph():
    """alice: two swimming posts; bob: one guitar post; carol: silence."""
    g = SocialGraph(Platform.TWITTER)
    for pid in ("alice", "bob", "carol"):
        g.add_profile(
            UserProfile(profile_id=pid, platform=Platform.TWITTER, display_name=pid)
        )
    posts = {
        "a1": ("alice", "freestyle swimming training at the pool every morning"),
        "a2": ("alice", "great swimming race and a gold medal in freestyle"),
        "b1": ("bob", "playing guitar and writing a new rock song tonight"),
    }
    for rid, (owner, text) in posts.items():
        g.add_resource(
            Resource(resource_id=rid, platform=Platform.TWITTER, text=text, language="en")
        )
        g.link_resource(owner, rid, RelationKind.CREATES)
    return g


CANDIDATES = ("alice", "bob", "carol")


@pytest.fixture(scope="module", params=[CandidateModelFinder, DocumentModelFinder])
def finder(request, graph, analyzer):
    return request.param.build(graph, CANDIDATES, analyzer, BalogConfig())


class TestBalogModels:
    def test_topical_candidate_wins(self, finder):
        ranked = finder.find_experts("freestyle swimming")
        assert ranked[0].candidate_id == "alice"

    def test_off_topic_candidate_wins_their_domain(self, finder):
        ranked = finder.find_experts("rock guitar song")
        assert ranked[0].candidate_id == "bob"

    def test_no_match_empty(self, finder):
        assert finder.find_experts("quantum chromodynamics") == []

    def test_scores_positive_and_sorted(self, finder):
        ranked = finder.find_experts("swimming")
        scores = [e.score for e in ranked]
        assert all(s > 0 for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_top_score_is_one(self, finder):
        ranked = finder.find_experts("swimming pool")
        assert ranked[0].score == pytest.approx(1.0)

    def test_top_k(self, finder):
        assert len(finder.find_experts("swimming", top_k=1)) == 1

    def test_empty_query(self, finder):
        assert finder.find_experts("") == []


class TestBalogConfig:
    def test_smoothing_bounds(self):
        with pytest.raises(ValueError):
            BalogConfig(smoothing=0.0)
        with pytest.raises(ValueError):
            BalogConfig(smoothing=1.0)

    def test_distance_bounds(self):
        with pytest.raises(ValueError):
            BalogConfig(max_distance=5)

    def test_empty_candidates_rejected(self, graph, analyzer):
        with pytest.raises(ValueError):
            CandidateModelFinder.build(graph, [], analyzer)


class TestModelDifferences:
    def test_model1_pools_model2_sums(self, graph, analyzer):
        """Both must rank alice first, but with different score
        profiles — they are genuinely different estimators."""
        m1 = CandidateModelFinder.build(graph, CANDIDATES, analyzer)
        m2 = DocumentModelFinder.build(graph, CANDIDATES, analyzer)
        q = "freestyle swimming gold"
        r1 = {e.candidate_id: e.score for e in m1.find_experts(q)}
        r2 = {e.candidate_id: e.score for e in m2.find_experts(q)}
        assert set(r1) == set(r2)
        # relative gap between alice and bob differs across models
        if "bob" in r1 and "bob" in r2:
            assert not math.isclose(r1["bob"], r2["bob"], rel_tol=1e-3)

    def test_smoothing_flattens_scores(self, graph, analyzer):
        sharp = CandidateModelFinder.build(
            graph, CANDIDATES, analyzer, BalogConfig(smoothing=0.1)
        )
        flat = CandidateModelFinder.build(
            graph, CANDIDATES, analyzer, BalogConfig(smoothing=0.9)
        )
        q = "freestyle swimming"
        sharp_scores = {e.candidate_id: e.score for e in sharp.find_experts(q)}
        flat_scores = {e.candidate_id: e.score for e in flat.find_experts(q)}
        if "bob" in sharp_scores and "bob" in flat_scores:
            # heavier collection smoothing narrows the alice/bob gap
            assert flat_scores["bob"] > sharp_scores["bob"]


class TestColdBuildLanguage:
    @pytest.mark.parametrize("model", [CandidateModelFinder, DocumentModelFinder])
    def test_cold_build_matches_corpus_backed_build(self, analyzer, model):
        """A resource the platform annotates as Italian stays out of a
        cold build's documents, as it does out of a corpus-backed one."""
        from tests.core.test_expert_finder import annotated_graph

        graph = annotated_graph()
        corpus = CorpusAnalyzer(analyzer).analyze_graph(graph)
        warm = model.build(graph, ["u"], analyzer, corpus=corpus)
        cold = model.build(graph, ["u"], analyzer)
        assert list(warm._documents) == ["u"]
        assert cold._documents == warm._documents
        need = "freestyle swimmer"
        assert cold.find_experts(need) == warm.find_experts(need)


class TestOnTinyDataset:
    def test_models_beat_random_on_dataset(self, tiny_dataset):
        from repro.evaluation.baselines import random_baseline
        from repro.evaluation.runner import evaluate_finder

        for model in (CandidateModelFinder, DocumentModelFinder):
            finder = model.build(
                tiny_dataset.merged_graph,
                tiny_dataset.candidates_for(None),
                tiny_dataset.analyzer,
                BalogConfig(),
                corpus=tiny_dataset.corpus,
            )
            result = evaluate_finder(tiny_dataset, finder)
            random = random_baseline(
                tiny_dataset.person_ids,
                tiny_dataset.queries,
                tiny_dataset.ground_truth,
                seed=1,
            )
            assert result.summary().map > random.map
