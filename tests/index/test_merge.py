"""Unit tests for index merging (what segment compaction and the object
path's merged slice use) and its interaction with collection statistics."""

import pytest

from repro.index.entity_index import EntityIndex, EntityPosting
from repro.index.inverted import InvertedIndex, Posting
from repro.index.statistics import CollectionStatistics


def _term_index(docs):
    index = InvertedIndex()
    for doc_id, counts in docs:
        index.add_document(doc_id, counts)
    return index


def _entity_index(docs):
    index = EntityIndex()
    for doc_id, counts in docs:
        index.add_document(doc_id, counts)
    return index


class TestInvertedIndexMerge:
    def test_shard_merge_equals_serial_build(self):
        docs = [
            ("d1", {"swim": 2, "pool": 1}),
            ("d2", {"swim": 1}),
            ("d3", {"bike": 4, "pool": 2}),
            ("d4", {"run": 1, "swim": 3}),
        ]
        serial = _term_index(docs)
        merged = _term_index(docs[:2])
        merged.merge(_term_index(docs[2:]))
        assert merged.document_count == serial.document_count
        assert merged.doc_ids() == serial.doc_ids()
        # same terms, same postings, same order — byte-identical retrieval
        assert list(merged.items()) == list(serial.items())

    def test_merge_preserves_postings_order_for_shared_terms(self):
        left = _term_index([("a", {"swim": 1})])
        right = _term_index([("b", {"swim": 2})])
        left.merge(right)
        assert left.postings("swim") == (Posting("a", 1), Posting("b", 2))

    def test_new_terms_keep_shard_order(self):
        left = _term_index([("a", {"swim": 1})])
        right = _term_index([("b", {"bike": 1, "run": 2})])
        left.merge(right)
        assert left.terms() == ("swim", "bike", "run")

    def test_merge_empty_shard_is_noop(self):
        index = _term_index([("a", {"swim": 1})])
        index.merge(InvertedIndex())
        assert index.document_count == 1
        assert index.postings("swim") == (Posting("a", 1),)

    def test_merge_into_empty_adopts_shard(self):
        index = InvertedIndex()
        index.merge(_term_index([("a", {"swim": 1})]))
        assert index.document_count == 1
        assert "swim" in index

    def test_doc_collision_rejected(self):
        left = _term_index([("a", {"swim": 1}), ("b", {"run": 1})])
        right = _term_index([("b", {"bike": 1})])
        with pytest.raises(ValueError, match="'b'"):
            left.merge(right)

    def test_collision_rejected_even_for_termless_docs(self):
        left = _term_index([("a", {})])
        right = _term_index([("a", {})])
        with pytest.raises(ValueError, match="indexed by both"):
            left.merge(right)


class TestEntityIndexMerge:
    def test_shard_merge_equals_serial_build(self):
        docs = [
            ("d1", {"ent:phelps": (2, 0.9)}),
            ("d2", {"ent:phelps": (1, 0.4), "ent:pool": (1, 0.6)}),
            ("d3", {"ent:pool": (3, 0.8)}),
        ]
        serial = _entity_index(docs)
        merged = _entity_index(docs[:1])
        merged.merge(_entity_index(docs[1:]))
        assert list(merged.items()) == list(serial.items())
        assert merged.doc_ids() == serial.doc_ids()

    def test_merge_preserves_postings_order(self):
        left = _entity_index([("a", {"ent:x": (1, 0.5)})])
        right = _entity_index([("b", {"ent:x": (2, 0.7)})])
        left.merge(right)
        assert left.postings("ent:x") == (
            EntityPosting("a", 1, 0.5),
            EntityPosting("b", 2, 0.7),
        )

    def test_doc_collision_rejected(self):
        left = _entity_index([("a", {"ent:x": (1, 0.5)})])
        right = _entity_index([("a", {"ent:y": (1, 0.5)})])
        with pytest.raises(ValueError, match="'a'"):
            left.merge(right)


class TestMergeStatisticsInvalidation:
    def test_stats_refresh_automatically_after_merge(self):
        terms = _term_index([("a", {"swim": 1})])
        entities = _entity_index([("a", {"ent:x": (1, 0.5)})])
        stats = CollectionStatistics(terms, entities)
        stale_irf = stats.irf("swim")
        stale_eirf = stats.eirf("ent:x")

        terms.merge(_term_index([("b", {"swim": 1}), ("c", {"run": 1})]))
        entities.merge(
            _entity_index([("b", {"ent:x": (1, 0.5)}), ("c", {})])
        )
        # merging bumps the index versions, so every ratio reflects the
        # merged collection on the very next read — no caller-side
        # invalidate() is needed (stale irf must be impossible)
        assert stats.resource_count == 3
        assert stats.irf("swim") != stale_irf
        assert stats.eirf("ent:x") != stale_eirf
        assert stats.irf("run") > 0.0
