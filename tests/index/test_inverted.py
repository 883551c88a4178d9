"""Unit tests for the term inverted index."""

import pytest

from tests.reference.inverted import InvertedIndex, Posting


@pytest.fixture
def index():
    idx = InvertedIndex()
    idx.add_document("d1", {"apple": 2, "pear": 1})
    idx.add_document("d2", {"apple": 1})
    idx.add_document("d3", {"plum": 4})
    return idx


class TestInvertedIndex:
    def test_document_count(self, index):
        assert index.document_count == 3

    def test_vocabulary_size(self, index):
        assert index.vocabulary_size == 3

    def test_postings_order_and_tf(self, index):
        postings = index.postings("apple")
        assert postings == (Posting("d1", 2), Posting("d2", 1))

    def test_document_frequency(self, index):
        assert index.document_frequency("apple") == 2
        assert index.document_frequency("plum") == 1
        assert index.document_frequency("ghost") == 0

    def test_contains(self, index):
        assert "apple" in index
        assert "ghost" not in index

    def test_unseen_term_empty_postings(self, index):
        assert index.postings("ghost") == ()

    def test_zero_counts_skipped(self):
        idx = InvertedIndex()
        idx.add_document("d", {"a": 0, "b": 1})
        assert "a" not in idx
        assert "b" in idx

    def test_duplicate_document_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document("d1", {"x": 1})

    def test_empty_document_counts_toward_collection(self):
        idx = InvertedIndex()
        idx.add_document("d", {})
        assert idx.document_count == 1
        assert idx.vocabulary_size == 0

    def test_negative_tf_rejected(self):
        with pytest.raises(ValueError):
            Posting("d", 0)

    def test_terms_listing(self, index):
        assert set(index.terms()) == {"apple", "pear", "plum"}
