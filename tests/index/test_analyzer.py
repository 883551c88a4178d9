"""Unit tests for the resource analyzer (terms + entities)."""


class TestResourceAnalyzer:
    def test_terms_are_stemmed_counts(self, analyzer):
        out = analyzer.analyze("d", "swimming swimming pools", language="en")
        assert out.term_counts["swim"] == 2
        assert out.term_counts["pool"] == 1

    def test_stop_words_removed(self, analyzer):
        out = analyzer.analyze("d", "the best of the best", language="en")
        assert "the" not in out.term_counts
        assert "of" not in out.term_counts

    def test_short_text_without_language_is_und(self, analyzer):
        out = analyzer.analyze("d", "gold medal")
        assert out.language == "und"

    def test_entities_extracted_with_dscore(self, analyzer):
        out = analyzer.analyze("d", "michael phelps is the best freestyle swimmer today")
        assert "wiki/Michael_Phelps" in out.entity_counts
        count, d_score = out.entity_counts["wiki/Michael_Phelps"]
        assert count == 1
        assert 0.0 < d_score <= 1.0

    def test_repeated_entity_counted(self, analyzer):
        out = analyzer.analyze(
            "d", "michael phelps met michael phelps at the pool", language="en"
        )
        assert out.entity_counts["wiki/Michael_Phelps"][0] == 2

    def test_non_english_has_no_entities(self, analyzer):
        out = analyzer.analyze(
            "d", "questa e una bella giornata per andare in piscina con gli amici"
        )
        assert out.language == "it"
        assert out.entity_counts == {}

    def test_language_override(self, analyzer):
        out = analyzer.analyze("d", "qualcosa", language="en")
        assert out.language == "en"

    def test_doc_length(self, analyzer):
        out = analyzer.analyze("d", "gold medal gold medal gold")
        assert out.length == 5

    def test_doc_id_preserved(self, analyzer):
        assert analyzer.analyze("some:id", "hello world").doc_id == "some:id"
