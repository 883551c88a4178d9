"""Unit tests for the vector-space retriever (paper Eq. 1–2)."""

import pytest

from repro.index.analyzer import AnalyzedResource
from repro.core.scoring import entity_weight
from tests.reference.entity_index import EntityIndex
from tests.reference.inverted import InvertedIndex
from tests.reference.vsm import VectorSpaceRetriever


def _query(terms=None, entities=None):
    return AnalyzedResource(
        doc_id="__q__",
        language="en",
        term_counts=dict(terms or {}),
        entity_counts=dict(entities or {}),
    )


@pytest.fixture
def retriever():
    terms = InvertedIndex()
    entities = EntityIndex()
    # d1: swimming-heavy with a confident Phelps mention
    terms.add_document("d1", {"swim": 3, "pool": 1})
    entities.add_document("d1", {"wiki/Phelps": (1, 0.9)})
    # d2: one mention of swim, no entities
    terms.add_document("d2", {"swim": 1, "lunch": 2})
    entities.add_document("d2", {})
    # d3: off topic
    terms.add_document("d3", {"guitar": 2})
    entities.add_document("d3", {"wiki/Jackson": (2, 0.5)})
    return VectorSpaceRetriever(terms, entities)


class TestEntityWeight:
    def test_eq2_positive(self):
        assert entity_weight(0.5) == 1.5

    def test_eq2_zero(self):
        assert entity_weight(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entity_weight(-0.1)


class TestRetrieve:
    def test_term_only_ranking(self, retriever):
        matches = retriever.retrieve(_query(terms={"swim": 1}), alpha=1.0)
        assert [m.doc_id for m in matches] == ["d1", "d2"]
        assert matches[0].score > matches[1].score

    def test_entity_only_ranking(self, retriever):
        matches = retriever.retrieve(_query(entities={"wiki/Phelps": (1, 1.0)}), alpha=0.0)
        assert [m.doc_id for m in matches] == ["d1"]

    def test_alpha_blends(self, retriever):
        q = _query(terms={"guitar": 1}, entities={"wiki/Jackson": (1, 1.0)})
        full = retriever.retrieve(q, alpha=0.5)[0]
        assert full.term_score > 0 and full.entity_score > 0
        assert full.score == pytest.approx(
            0.5 * full.term_score + 0.5 * full.entity_score
        )

    def test_eq1_term_value(self, retriever):
        matches = retriever.retrieve(_query(terms={"swim": 1}), alpha=1.0)
        irf = retriever.statistics.irf("swim")
        assert matches[0].term_score == pytest.approx(3 * irf**2)

    def test_eq1_entity_value(self, retriever):
        matches = retriever.retrieve(_query(entities={"wiki/Phelps": (1, 1.0)}), alpha=0.0)
        eirf = retriever.statistics.eirf("wiki/Phelps")
        assert matches[0].entity_score == pytest.approx(1 * eirf**2 * (1 + 0.9))

    def test_no_match(self, retriever):
        assert retriever.retrieve(_query(terms={"ghost": 1}), alpha=1.0) == []

    def test_alpha_one_ignores_entities(self, retriever):
        matches = retriever.retrieve(
            _query(entities={"wiki/Phelps": (1, 1.0)}), alpha=1.0
        )
        assert matches == []

    def test_alpha_zero_ignores_terms(self, retriever):
        matches = retriever.retrieve(_query(terms={"swim": 1}), alpha=0.0)
        assert matches == []

    def test_alpha_validation(self, retriever):
        with pytest.raises(ValueError):
            retriever.retrieve(_query(), alpha=1.5)

    def test_deterministic_tie_break(self, retriever):
        # two docs with identical scores order by doc id
        terms = InvertedIndex()
        entities = EntityIndex()
        terms.add_document("b", {"x": 1})
        terms.add_document("a", {"x": 1})
        entities.add_document("b", {})
        entities.add_document("a", {})
        r = VectorSpaceRetriever(terms, entities)
        matches = r.retrieve(_query(terms={"x": 1}), alpha=1.0)
        assert [m.doc_id for m in matches] == ["a", "b"]

    def test_idf_exponent_ablation(self):
        terms = InvertedIndex()
        entities = EntityIndex()
        terms.add_document("d1", {"rare": 1})
        terms.add_document("d2", {"noise": 1})
        entities.add_document("d1", {})
        entities.add_document("d2", {})
        squared = VectorSpaceRetriever(terms, entities, idf_exponent=2.0)
        linear = VectorSpaceRetriever(terms, entities, idf_exponent=1.0)
        q = _query(terms={"rare": 1})
        s2 = squared.retrieve(q, alpha=1.0)[0].score
        s1 = linear.retrieve(q, alpha=1.0)[0].score
        irf = squared.statistics.irf("rare")
        assert s2 == pytest.approx(s1 * irf)


class TestRetrieveTopK:
    """The best-k prefix of a retrieval, as the window reads it."""

    def test_weight_cache_invalidated_by_add_document(self, retriever):
        q = _query(terms={"swim": 1}, entities={"wiki/Phelps": (1, 1.0)})
        before = retriever.retrieve(q, 0.5)[:5]
        assert before  # weights are now memoized
        retriever.add_document(
            AnalyzedResource(
                doc_id="d4",
                language="en",
                term_counts={"swim": 2},
                entity_counts={"wiki/Phelps": (1, 0.8)},
            )
        )
        after = retriever.retrieve(q, 0.5)[:5]
        fresh = VectorSpaceRetriever(
            retriever.term_index, retriever.entity_index
        ).retrieve(q, 0.5)[:5]
        assert after == fresh
        assert {m.doc_id for m in after} != {m.doc_id for m in before}


class TestAutomaticWeightRefresh:
    def test_direct_index_merge_refreshes_weights(self, retriever):
        # a document written directly into the underlying indexes must
        # be retrievable — and must re-weight existing postings —
        # without a manual invalidate()
        before = retriever.retrieve(_query(terms={"swim": 1}), alpha=1.0)
        retriever.term_index.add_document("d4", {"swim": 2})
        retriever.entity_index.add_document("d4", {})
        after = retriever.retrieve(_query(terms={"swim": 1}), alpha=1.0)
        assert "d4" in {m.doc_id for m in after}
        # df(swim) rose from 2 to 3 of now-4 docs → every score shifted
        assert {m.doc_id: m.score for m in after}["d1"] != (
            {m.doc_id: m.score for m in before}["d1"]
        )
