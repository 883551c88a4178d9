"""Integration-level tests for the ExpertFinder facade on a hand-built
micro graph (the paper's Fig.-1 scenario)."""

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.need import ExpertiseNeed
from repro.extraction.crawler import CorpusAnalyzer
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import (
    Platform,
    RelationKind,
    Resource,
    SocialRelation,
    UserProfile,
)
from tests.oracle import evidence_of, oracle_experts


@pytest.fixture(scope="module")
def fig1_graph():
    """Anna asks about freestyle swimmers. Alice tweeted about Phelps's
    freestyle gold medal; Charlie posted about his freestyle training;
    Bob's profile shows swimming as a hobby; Chuck only follows Bob;
    Peggy has nothing related."""
    g = SocialGraph(Platform.TWITTER)
    profiles = {
        "alice": "",
        "charlie": "",
        "bob": "hobby swimming",
        "chuck": "",
        "peggy": "i love cooking pasta and baking bread every single day",
    }
    for pid, text in profiles.items():
        g.add_profile(
            UserProfile(profile_id=pid, platform=Platform.TWITTER,
                        display_name=pid.title(), text=text)
        )
    g.add_resource(Resource(
        resource_id="t1", platform=Platform.TWITTER,
        text="michael phelps is the best great freestyle gold medal", language="en"))
    g.add_resource(Resource(
        resource_id="t2", platform=Platform.TWITTER,
        text="just finished 30min freestyle training at the swimming pool", language="en"))
    g.link_resource("alice", "t1", RelationKind.CREATES)
    g.link_resource("charlie", "t2", RelationKind.CREATES)
    g.add_social_relation(SocialRelation("chuck", "bob", RelationKind.FOLLOWS))
    return g


CANDIDATES = ("alice", "charlie", "bob", "chuck", "peggy")


@pytest.fixture(scope="module")
def finder(fig1_graph, analyzer):
    return ExpertFinder.build(
        fig1_graph, CANDIDATES, analyzer, FinderConfig(alpha=0.6, window=None)
    )


class TestFig1Scenario:
    def test_ranking_matches_paper_figure(self, finder):
        # "swimming" (not "swimmer"): Porter keeps the two stems apart,
        # so the hobby profile only matches the gerund form
        ranked = finder.find_experts("best freestyle swimming")
        ids = [e.candidate_id for e in ranked]
        # Alice and Charlie lead (direct resources), Bob follows via his
        # profile, Chuck only via following Bob; Peggy is absent
        assert ids.index("alice") < ids.index("bob")
        assert ids.index("charlie") < ids.index("bob")
        assert ids.index("bob") < ids.index("chuck")
        assert "peggy" not in ids

    def test_scores_strictly_positive_and_sorted(self, finder):
        ranked = finder.find_experts("best freestyle swimming")
        scores = [e.score for e in ranked]
        assert all(s > 0 for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_top_k(self, finder):
        assert len(finder.find_experts("freestyle", top_k=2)) == 2

    def test_need_object_accepted(self, finder):
        need = ExpertiseNeed(need_id="q", text="best freestyle swimmer", domain="sport")
        assert finder.find_experts(need)

    def test_unrelated_query_empty(self, finder):
        assert finder.find_experts("quantum chromodynamics lattice") == []


class TestDistanceConfigurations:
    def test_distance_0_profile_only(self, fig1_graph, analyzer):
        finder = ExpertFinder.build(
            fig1_graph, CANDIDATES, analyzer, FinderConfig(max_distance=0, window=None)
        )
        ranked = finder.find_experts("swimming hobby")
        assert [e.candidate_id for e in ranked] == ["bob"]

    def test_distance_1_includes_followed_profiles(self, fig1_graph, analyzer):
        # Table 1: "Expert Candidate follows User Profile" is distance-1
        # evidence, so Chuck is supported by Bob's profile — but at the
        # lower distance weight, behind Bob himself
        finder = ExpertFinder.build(
            fig1_graph, CANDIDATES, analyzer, FinderConfig(max_distance=1, window=None)
        )
        ranked = finder.find_experts("swimming")
        ids = [e.candidate_id for e in ranked]
        assert ids.index("bob") < ids.index("chuck")

    def test_evidence_counts(self, finder):
        assert finder.evidence_count("alice") == 2  # profile + t1
        assert finder.evidence_count("chuck") == 2  # profile + bob's profile
        assert finder.evidence_count("peggy") == 1


class TestMultiProfileCandidates:
    def test_grouped_candidates(self, fig1_graph, analyzer):
        candidates = {"person:ac": ("alice", "charlie"), "person:b": ("bob",)}
        finder = ExpertFinder.build(
            fig1_graph, candidates, analyzer, FinderConfig(window=None)
        )
        ranked = finder.find_experts("freestyle swimming")
        assert ranked[0].candidate_id == "person:ac"
        # both alice's and charlie's resources support the merged candidate
        assert finder.evidence_count("person:ac") == 4

    def test_min_distance_across_profiles(self, fig1_graph, analyzer):
        # bob's profile is distance 0 for candidate holding bob, even if
        # also reachable at distance 2 through chuck
        candidates = {"p": ("chuck", "bob")}
        finder = ExpertFinder.build(
            fig1_graph, candidates, analyzer, FinderConfig(window=None)
        )
        ranked = finder.find_experts("swimming hobby")
        assert ranked and ranked[0].candidate_id == "p"


class TestBuildValidation:
    def test_empty_candidates_rejected(self, fig1_graph, analyzer):
        with pytest.raises(ValueError):
            ExpertFinder.build(fig1_graph, [], analyzer)

    def test_alpha_override(self, finder):
        terms_only = finder.find_experts("best freestyle swimmer", alpha=1.0)
        assert terms_only  # term path alone still matches

    def test_window_override(self, finder):
        windowed = finder.find_experts("best freestyle swimmer", window=1)
        full = finder.find_experts("best freestyle swimmer", window=None)
        assert len(windowed) <= len(full)


class TestTopKFastPath:
    def test_int_window_fast_path_matches_full_retrieval(self, finder):
        """With an absolute window each source cuts its own matches to
        the window before the global cut; the ranking must equal the
        oracle's, which windows the full retrieval."""
        need = "best freestyle swimming"
        for window in (1, 2, 100):
            fast = finder.find_experts(need, window=window)
            assert fast == oracle_experts(finder, need, window=window)


class TestParallelBuild:
    """The cold-build pipeline records per-stage timings."""

    def test_build_stats_recorded(self, finder):
        stats = finder.build_stats
        assert stats is not None
        assert stats.nodes >= stats.indexed > 0
        assert stats.total_s == stats.gather_s + stats.analyze_s + stats.index_s
        payload = stats.as_dict()
        assert payload["indexed"] == finder.indexed_resources
        assert "nodes_per_s" in payload


def annotated_graph():
    """One Twitter profile that created one English-text resource the
    platform annotates as Italian."""
    g = SocialGraph(Platform.TWITTER)
    g.add_profile(
        UserProfile(profile_id="u", platform=Platform.TWITTER, display_name="u")
    )
    g.add_resource(Resource(
        resource_id="r", platform=Platform.TWITTER,
        text="best freestyle swimmer at the pool this morning", language="it",
    ))
    g.link_resource("u", "r", RelationKind.CREATES)
    return g


class TestColdBuildLanguage:
    def test_cold_build_matches_corpus_backed_build(self, analyzer):
        """A cold build keeps the platform's language annotation, so it
        indexes and ranks exactly what the corpus-backed build does."""
        graph = annotated_graph()
        corpus = CorpusAnalyzer(analyzer).analyze_graph(graph)
        warm = ExpertFinder.build(graph, ["u"], analyzer, corpus=corpus)
        cold = ExpertFinder.build(graph, ["u"], analyzer)
        assert warm.indexed_resources == 1  # the Italian resource stays out
        assert cold.indexed_resources == warm.indexed_resources
        assert evidence_of(cold) == evidence_of(warm)
        need = "freestyle swimmer"
        assert cold.find_experts(need) == warm.find_experts(need)
