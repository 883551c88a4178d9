"""Unit tests for the assembled evaluation dataset."""

from repro.socialgraph.metamodel import Platform
from repro.synthetic.dataset import DatasetScale


class TestEvaluationDataset:
    def test_population_size(self, tiny_dataset):
        assert len(tiny_dataset.people) == DatasetScale.TINY.population_size

    def test_graphs_per_platform(self, tiny_dataset):
        assert set(tiny_dataset.graphs) == set(Platform)

    def test_merged_graph_is_union(self, tiny_dataset):
        merged_total = len(tiny_dataset.merged_graph)
        # followed celebrities etc. are deduplicated per platform, ids are
        # platform-prefixed, so the merged graph is the exact union
        assert merged_total == sum(len(g) for g in tiny_dataset.graphs.values())

    def test_corpus_covers_merged_graph(self, tiny_dataset):
        graph = tiny_dataset.merged_graph
        node_count = len(graph)
        assert len(tiny_dataset.corpus) == node_count

    def test_candidates_for_platform(self, tiny_dataset):
        candidates = tiny_dataset.candidates_for(Platform.TWITTER)
        assert len(candidates) == len(tiny_dataset.people)
        for profiles in candidates.values():
            assert len(profiles) == 1
            assert profiles[0].startswith("tw:")

    def test_candidates_for_all(self, tiny_dataset):
        candidates = tiny_dataset.candidates_for(None)
        for profiles in candidates.values():
            assert len(profiles) == 3

    def test_graph_for(self, tiny_dataset):
        assert tiny_dataset.graph_for(None) is tiny_dataset.merged_graph
        assert tiny_dataset.graph_for(Platform.FACEBOOK) is tiny_dataset.graphs[
            Platform.FACEBOOK
        ]

    def test_thirty_queries(self, tiny_dataset):
        assert len(tiny_dataset.queries) == 30

    def test_scale_properties(self):
        assert DatasetScale.TINY.population_size == 12
        assert DatasetScale.SMALL.population_size == 40
        assert DatasetScale.PAPER.population_size == 40
        assert DatasetScale.SMALL.profile.name == "small"

    def test_non_english_resources_present(self, tiny_dataset):
        languages = {a.language for a in tiny_dataset.corpus.values()}
        assert "en" in languages
        assert languages & {"it", "es"}

    def test_url_enrichment_reached_corpus(self, tiny_dataset):
        # resources linking topical pages must carry the page's words;
        # find a resource with a sport URL and check for enrichment
        graph = tiny_dataset.merged_graph
        enriched = 0
        for resource in graph.resources():
            if resource.urls and "/sport/" in resource.urls[0]:
                analysis = tiny_dataset.corpus[resource.resource_id]
                if analysis.language == "en" and len(analysis.term_counts) > 8:
                    enriched += 1
        assert enriched > 0
