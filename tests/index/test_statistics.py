"""Unit tests for collection statistics (irf/eirf)."""

import math

import pytest

from tests.reference.entity_index import EntityIndex
from tests.reference.inverted import InvertedIndex
from tests.reference.statistics import CollectionStatistics


@pytest.fixture
def stats():
    terms = InvertedIndex()
    entities = EntityIndex()
    terms.add_document("d1", {"common": 1, "rare": 1})
    terms.add_document("d2", {"common": 1})
    terms.add_document("d3", {"common": 2})
    entities.add_document("d1", {"wiki/E": (1, 0.8)})
    entities.add_document("d2", {})
    entities.add_document("d3", {})
    return CollectionStatistics(terms, entities)


class TestStatistics:
    def test_resource_count(self, stats):
        assert stats.resource_count == 3

    def test_rare_term_weighs_more(self, stats):
        assert stats.irf("rare") > stats.irf("common")

    def test_irf_values(self, stats):
        assert stats.irf("rare") == pytest.approx(math.log(1 + 3 / 1))
        assert stats.irf("common") == pytest.approx(math.log(1 + 3 / 3))

    def test_unseen_term_zero(self, stats):
        assert stats.irf("ghost") == 0.0

    def test_eirf(self, stats):
        assert stats.eirf("wiki/E") == pytest.approx(math.log(1 + 3 / 1))
        assert stats.eirf("wiki/Z") == 0.0

    def test_cache_consistency(self, stats):
        assert stats.irf("rare") == stats.irf("rare")

    def test_mismatched_indexes_rejected(self):
        terms = InvertedIndex()
        terms.add_document("d1", {"a": 1})
        entities = EntityIndex()
        with pytest.raises(ValueError):
            CollectionStatistics(terms, entities)


class TestAutomaticRefresh:
    """Write-path auto-invalidation: direct ``add_document`` calls on
    the underlying indexes must be visible on the very next
    statistics read — stale irf values are impossible, with no
    caller-side ``invalidate()`` discipline."""

    @staticmethod
    def _indexes():
        terms = InvertedIndex()
        entities = EntityIndex()
        terms.add_document("d1", {"common": 1})
        entities.add_document("d1", {"wiki/E": (1, 0.8)})
        terms.add_document("d2", {"other": 1})
        entities.add_document("d2", {})
        return terms, entities

    def test_direct_add_refreshes_irf(self):
        terms, entities = self._indexes()
        stats = CollectionStatistics(terms, entities)
        stale = stats.irf("common")
        terms.add_document("d3", {"common": 1})
        entities.add_document("d3", {})
        assert stats.resource_count == 3
        assert stats.irf("common") == pytest.approx(math.log(1 + 3 / 2))
        assert stats.irf("common") != stale

    def test_direct_add_refreshes_eirf(self):
        terms, entities = self._indexes()
        stats = CollectionStatistics(terms, entities)
        stale = stats.eirf("wiki/E")
        terms.add_document("d3", {})
        entities.add_document("d3", {"wiki/E": (2, 0.5)})
        assert stats.eirf("wiki/E") == pytest.approx(math.log(1 + 3 / 2))
        assert stats.eirf("wiki/E") != stale

    def test_new_term_visible_without_invalidate(self):
        terms, entities = self._indexes()
        stats = CollectionStatistics(terms, entities)
        assert stats.irf("fresh") == 0.0
        terms.add_document("d3", {"fresh": 1})
        entities.add_document("d3", {})
        assert stats.irf("fresh") == pytest.approx(math.log(1 + 3 / 1))

    def test_version_counters_bump_on_writes(self):
        terms = InvertedIndex()
        entities = EntityIndex()
        assert (terms.version, entities.version) == (0, 0)
        terms.add_document("d1", {"a": 1})
        entities.add_document("d1", {})
        assert (terms.version, entities.version) == (1, 1)
        terms.add_document("d2", {"b": 1})
        entities.add_document("d2", {})
        assert (terms.version, entities.version) == (2, 2)

    def test_manual_invalidate_still_works(self, stats):
        stats.irf("common")
        stats.invalidate()  # kept for compatibility; must stay harmless
        assert stats.irf("common") == pytest.approx(math.log(1 + 3 / 3))
