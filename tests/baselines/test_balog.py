"""Unit tests for the Balog Model 1 / Model 2 baselines."""

import math

import pytest

from repro.baselines.balog import CandidateModelFinder, DocumentModelFinder
from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.extraction.crawler import CorpusAnalyzer
from repro.extraction.url_content import UrlContentExtractor
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import Platform, RelationKind, Resource, UserProfile
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources

MODELS = (CandidateModelFinder, DocumentModelFinder)


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


@pytest.fixture(scope="module")
def system(graph, analyzer):
    return ExpertFinder.build(graph, CANDIDATES, analyzer)


@pytest.fixture(scope="module", params=MODELS)
def finder(request, system):
    return request.param(system)


def _rankings(models, needs):
    return [[model.find_experts(need) for need in needs] for model in models]


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

    @pytest.mark.parametrize("model", MODELS)
    def test_model_keeps_the_collection_it_was_built_from(
        self, graph, analyzer, model
    ):
        need = "rock guitar song"
        system = ExpertFinder.build(graph, CANDIDATES, analyzer)
        built = model(system)
        before = built.find_experts(need)
        system.observe("c1", "rock guitar riffs and a new song", [("carol", 1)])
        assert built.find_experts(need) == before
        # a model built after the observe reads it from the write buffer
        assert "carol" in {e.candidate_id for e in model(system).find_experts(need)}


class TestBalogConfig:
    def test_smoothing_bounds(self, system):
        """Smoothing is the models' one option; distance, friends and
        the wr interval are the finder's."""
        for model in MODELS:
            with pytest.raises(ValueError):
                model(system, smoothing=0.0)
            with pytest.raises(ValueError):
                model(system, smoothing=1.0)


class TestModelDifferences:
    def test_model1_pools_model2_sums(self, system):
        """Both must rank alice first, but with different score
        profiles — they are genuinely different estimators."""
        m1 = CandidateModelFinder(system)
        m2 = DocumentModelFinder(system)
        q = "freestyle swimming gold"
        r1 = {e.candidate_id: e.score for e in m1.find_experts(q)}
        r2 = {e.candidate_id: e.score for e in m2.find_experts(q)}
        assert set(r1) == set(r2)
        # relative gap between alice and bob differs across models
        if "bob" in r1 and "bob" in r2:
            assert not math.isclose(r1["bob"], r2["bob"], rel_tol=1e-3)

    def test_smoothing_flattens_scores(self, system):
        sharp = CandidateModelFinder(system, smoothing=0.1)
        flat = CandidateModelFinder(system, smoothing=0.9)
        q = "freestyle swimming"
        sharp_scores = {e.candidate_id: e.score for e in sharp.find_experts(q)}
        flat_scores = {e.candidate_id: e.score for e in flat.find_experts(q)}
        if "bob" in sharp_scores and "bob" in flat_scores:
            # heavier collection smoothing narrows the alice/bob gap
            assert flat_scores["bob"] > sharp_scores["bob"]


class TestColdBuildLanguage:
    @pytest.mark.parametrize("model", MODELS)
    def test_cold_build_matches_corpus_backed_build(self, analyzer, model):
        """A resource the platform annotates as Italian stays out of a
        model over a cold finder, as it does out of one over a
        corpus-backed finder."""
        from tests.core.test_expert_finder import annotated_graph

        graph = annotated_graph()
        corpus = CorpusAnalyzer(analyzer).analyze_graph(graph)
        warm = model(ExpertFinder.build(graph, ["u"], analyzer, corpus=corpus))
        cold = model(ExpertFinder.build(graph, ["u"], analyzer))
        assert list(warm._documents) == ["u"]
        assert cold._documents == warm._documents
        need = "freestyle swimmer"
        assert cold.find_experts(need) == warm.find_experts(need)


class TestFinderCollection:
    @pytest.mark.parametrize("include_friends", [False, True])
    def test_cold_finder_ranks_as_corpus_backed_finder(
        self, tiny_dataset, include_friends
    ):
        """On the merged graph at distance 2, a cold finder reads linked
        pages as the corpus did, so both models rank it `==`."""
        dataset = tiny_dataset
        config = FinderConfig(include_friends=include_friends)
        args = (dataset.merged_graph, dataset.candidates_for(None), dataset.analyzer)
        warm = ExpertFinder.build(*args, config, corpus=dataset.corpus)
        cold = ExpertFinder.build(
            *args, config, url_content=UrlContentExtractor(dataset.networks.web)
        )
        assert _rankings([m(cold) for m in MODELS], dataset.queries) == _rankings(
            [m(warm) for m in MODELS], dataset.queries
        )

    def test_grown_compacted_and_one_shot_rank_alike(self, analyzer):
        """Sealed segments oldest first, then the buffer: a grown
        finder's collection is its compacted copy's and a one-shot
        build's, in the same resource order."""
        candidates = stream_candidates(50)
        events = list(stream_resources(candidates, 600, seed=3))
        needs = stream_queries(40, seed=3)

        def grown():
            finder = ExpertFinder.from_stream(
                candidates, events[:420], analyzer,
                seal_threshold=40, compaction="manual",
            )
            for node_id, text, supporters, *language in events[420:]:
                finder.observe(
                    node_id, text, supporters,
                    language=language[0] if language else None,
                )
            return finder

        live = grown()
        stats = live.index_stats
        assert (stats.segments, stats.buffered) == (5, 20)
        compacted = grown()
        assert compacted.segmented_index.compact(full=True) == 1
        one_shot = ExpertFinder.from_stream(candidates, events, analyzer)
        expected = _rankings([m(live) for m in MODELS], needs)
        assert any(ranking for model in expected for ranking in model)
        assert _rankings([m(compacted) for m in MODELS], needs) == expected
        assert _rankings([m(one_shot) for m in MODELS], needs) == expected


class TestOnTinyDataset:
    def test_models_beat_random_on_dataset(self, tiny_dataset):
        from repro.evaluation.baselines import random_baseline
        from repro.evaluation.runner import evaluate_finder

        system = ExpertFinder.build(
            tiny_dataset.merged_graph,
            tiny_dataset.candidates_for(None),
            tiny_dataset.analyzer,
            FinderConfig(),
            corpus=tiny_dataset.corpus,
        )
        for model in MODELS:
            result = evaluate_finder(tiny_dataset, model(system))
            random = random_baseline(
                tiny_dataset.person_ids,
                tiny_dataset.queries,
                tiny_dataset.ground_truth,
                seed=1,
            )
            assert result.summary().map > random.map
