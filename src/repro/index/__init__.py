"""Indexing & retrieval substrate (paper Sec. 2.4).

Resources are analyzed into bags of stemmed terms *and* sets of
disambiguated entities, stored in two inverted indexes. The vector-space
retriever implements the paper's Eq. 1–2: the relevance of a resource is
an ``α``-weighted combination of the term contribution
(``tf · irf²``) and the entity contribution (``ef · eirf² · we``), where
``we = 1 + dScore``.
"""

from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer
from repro.index.entity_index import EntityIndex, EntityPosting
from repro.index.inverted import InvertedIndex, Posting
from repro.index.statistics import CollectionStatistics
from repro.index.vsm import ResourceMatch, VectorSpaceRetriever

# NOTE: repro.index.segments is deliberately NOT imported here — it
# depends on core.* submodules, which import this package mid-init (see "Layering rules" in
# docs/architecture.md).
# Import them directly:
# ``from repro.index.segments import SegmentedIndex``.

__all__ = [
    "AnalyzedResource",
    "CollectionStatistics",
    "EntityIndex",
    "EntityPosting",
    "InvertedIndex",
    "Posting",
    "ResourceAnalyzer",
    "ResourceMatch",
    "VectorSpaceRetriever",
]
