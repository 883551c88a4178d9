"""Indexing & retrieval substrate (paper Sec. 2.4).

Resources are analyzed into bags of stemmed terms *and* sets of
disambiguated entities (:class:`ResourceAnalyzer`), which
:class:`~repro.index.segments.SegmentedIndex` stores as term and entity
posting columns and scores with the paper's Eq. 1–2: the relevance of a
resource is an ``α``-weighted combination of the term contribution
(``tf · irf²``) and the entity contribution (``ef · eirf² · we``), where
``we = 1 + dScore``.
"""

from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer

# NOTE: repro.index.segments is deliberately NOT imported here — it
# depends on core.* submodules, which import this package mid-init (see "Layering rules" in
# docs/architecture.md).
# Import them directly:
# ``from repro.index.segments import SegmentedIndex``.

__all__ = [
    "AnalyzedResource",
    "ResourceAnalyzer",
]
