"""Unit tests for the profile-only TF-IDF baseline."""

import pytest

from repro.baselines.profile_tfidf import ProfileTfidfFinder
from repro.extraction.crawler import CorpusAnalyzer
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import Platform, UserProfile


@pytest.fixture(scope="module")
def graph():
    g = SocialGraph(Platform.LINKEDIN)
    profiles = {
        "dev": "senior software engineer python database backend development",
        "chef": "professional cook italian cuisine restaurant kitchen recipes",
        "blank": "",
    }
    for pid, text in profiles.items():
        g.add_profile(
            UserProfile(
                profile_id=pid, platform=Platform.LINKEDIN, display_name=pid, text=text
            )
        )
    return g


@pytest.fixture(scope="module")
def corpus(graph, analyzer):
    return CorpusAnalyzer(analyzer).analyze_graph(graph)


@pytest.fixture(scope="module")
def finder(corpus, analyzer):
    return ProfileTfidfFinder.build(("dev", "chef", "blank"), corpus, analyzer)


class TestProfileTfidf:
    def test_matches_profile_topic(self, finder):
        ranked = finder.find_experts("python database engineer")
        assert ranked[0].candidate_id == "dev"

    def test_other_profile(self, finder):
        ranked = finder.find_experts("best italian restaurant cuisine")
        assert ranked[0].candidate_id == "chef"

    def test_blank_profile_never_retrieved(self, finder):
        for query in ("python", "cuisine", "anything"):
            assert all(e.candidate_id != "blank" for e in finder.find_experts(query))

    def test_cosine_bounded(self, finder):
        for e in finder.find_experts("python database engineer backend"):
            assert 0.0 < e.score <= 1.0 + 1e-9

    def test_empty_query(self, finder):
        assert finder.find_experts("") == []

    def test_no_match(self, finder):
        assert finder.find_experts("astrophysics telescope") == []

    def test_top_k(self, finder):
        assert len(finder.find_experts("professional", top_k=1)) <= 1

    def test_multi_profile_candidates(self, corpus, analyzer):
        finder = ProfileTfidfFinder.build({"both": ("dev", "chef")}, corpus, analyzer)
        ranked = finder.find_experts("python cuisine")
        assert ranked[0].candidate_id == "both"

    def test_empty_candidates_rejected(self, corpus, analyzer):
        with pytest.raises(ValueError):
            ProfileTfidfFinder.build([], corpus, analyzer)

    def test_profile_missing_from_corpus_rejected(self, corpus, analyzer):
        with pytest.raises(ValueError, match="'ghost'"):
            ProfileTfidfFinder.build({"dev": ("dev", "ghost")}, corpus, analyzer)

    def test_behavioural_system_beats_profiles_on_dataset(self, tiny_dataset):
        """The paper's core claim, in miniature: behaviour-based finding
        beats profile-only matching."""
        from repro.core.config import FinderConfig
        from repro.core.expert_finder import ExpertFinder
        from repro.evaluation.runner import evaluate_finder

        profile_finder = ProfileTfidfFinder.build(
            tiny_dataset.candidates_for(None),
            tiny_dataset.corpus,
            tiny_dataset.analyzer,
        )
        system = ExpertFinder.build(
            tiny_dataset.merged_graph,
            tiny_dataset.candidates_for(None),
            tiny_dataset.analyzer,
            FinderConfig(),
            corpus=tiny_dataset.corpus,
        )
        profile_map = evaluate_finder(tiny_dataset, profile_finder).summary().map
        system_map = evaluate_finder(tiny_dataset, system).summary().map
        assert system_map > profile_map
