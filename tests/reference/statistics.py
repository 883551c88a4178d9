# repro: lint-module[repro.index.reference.statistics]
"""Collection statistics: the frequency functions of paper Eq. 1.

* ``tf(t, r)`` — term frequency of *t* in resource *r*;
* ``irf(t)``  — inverse resource frequency of *t* over the collection;
* ``ef(e, r)`` — entity frequency of *e* in *r*;
* ``eirf(e)`` — inverse resource frequency of *e* over the entity
  collection.

Both inverse frequencies use the smoothed logarithmic form
``log(1 + N / df)``, which is strictly positive for any indexed item
(an unseen item scores 0). The paper squares these values in Eq. 1;
the squaring lives in :mod:`tests.reference.vsm`, keeping the statistics
reusable by the ablation benchmarks.
"""

from __future__ import annotations

import math

from tests.reference.entity_index import EntityIndex
from tests.reference.inverted import InvertedIndex


class CollectionStatistics:
    """Frequency statistics over one indexed resource collection."""

    def __init__(self, term_index: InvertedIndex, entity_index: EntityIndex):
        if term_index.document_count != entity_index.document_count:
            raise ValueError(
                "term and entity indexes must cover the same documents: "
                f"{term_index.document_count} != {entity_index.document_count}"
            )
        self._terms = term_index
        self._entities = entity_index
        self._irf_cache: dict[str, float] = {}
        self._eirf_cache: dict[str, float] = {}
        self._versions = (term_index.version, entity_index.version)

    @property
    def resource_count(self) -> int:
        return self._terms.document_count

    def invalidate(self) -> None:
        """Drop the cached irf/eirf values.

        Kept for explicit cache control, but no longer required for
        correctness: every read compares the indexes' write
        :attr:`~tests.reference.inverted.InvertedIndex.version` counters and
        self-invalidates when documents were appended underneath —
        streaming updates change every document frequency ratio, and
        caller discipline is not a contract worth relying on."""
        self._irf_cache.clear()
        self._eirf_cache.clear()

    def _refresh(self) -> None:
        versions = (self._terms.version, self._entities.version)
        if versions != self._versions:
            self._versions = versions
            self.invalidate()

    def irf(self, term: str) -> float:
        """Inverse resource frequency of *term*; 0 for unseen terms."""
        self._refresh()
        cached = self._irf_cache.get(term)
        if cached is not None:
            return cached
        df = self._terms.document_frequency(term)
        value = math.log(1.0 + self.resource_count / df) if df else 0.0
        self._irf_cache[term] = value
        return value

    def eirf(self, entity_uri: str) -> float:
        """Inverse resource frequency of *entity_uri*; 0 for unseen
        entities."""
        self._refresh()
        cached = self._eirf_cache.get(entity_uri)
        if cached is not None:
            return cached
        df = self._entities.document_frequency(entity_uri)
        value = math.log(1.0 + self.resource_count / df) if df else 0.0
        self._eirf_cache[entity_uri] = value
        return value
