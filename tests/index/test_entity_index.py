"""Unit tests for the entity inverted index."""

import pytest

from tests.reference.entity_index import EntityIndex, EntityPosting


@pytest.fixture
def index():
    idx = EntityIndex()
    idx.add_document("d1", {"wiki/A": (2, 0.9), "wiki/B": (1, 0.4)})
    idx.add_document("d2", {"wiki/A": (1, 0.7)})
    return idx


class TestEntityIndex:
    def test_document_count(self, index):
        assert index.document_count == 2

    def test_entity_count(self, index):
        assert index.entity_count == 2

    def test_postings_carry_dscore(self, index):
        postings = index.postings("wiki/A")
        assert postings == (
            EntityPosting("d1", 2, 0.9),
            EntityPosting("d2", 1, 0.7),
        )

    def test_document_frequency(self, index):
        assert index.document_frequency("wiki/A") == 2
        assert index.document_frequency("wiki/B") == 1
        assert index.document_frequency("wiki/Z") == 0

    def test_contains(self, index):
        assert "wiki/A" in index
        assert "wiki/Z" not in index

    def test_duplicate_document_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document("d1", {})

    def test_zero_count_skipped(self):
        idx = EntityIndex()
        idx.add_document("d", {"wiki/X": (0, 0.5)})
        assert "wiki/X" not in idx

    def test_posting_validation(self):
        with pytest.raises(ValueError):
            EntityPosting("d", 1, 1.5)
        with pytest.raises(ValueError):
            EntityPosting("d", 0, 0.5)

    def test_entities_listing(self, index):
        assert set(index.entities()) == {"wiki/A", "wiki/B"}
