# repro: lint-module[repro.index.reference.vsm]
"""Vector-space resource retrieval — paper Eq. 1 and Eq. 2.

Given an analyzed expertise need *q* and the indexed collection, the
retriever computes, for each resource *r* touched by *q*'s terms or
entities::

    score(q, r) = α · Σ_t  tf(t, r) · irf(t)²
                + (1−α) · Σ_e  ef(e, r) · eirf(e)² · we(e, r)

with ``we(e, r) = 1 + dScore(e, r)`` when the entity was recognized with
positive confidence, 0 otherwise (Eq. 2). α balances keyword matching
against entity matching; the paper settles on α = 0.6 (Sec. 3.3.2).

The implementation is document-at-a-time over the union of the query's
postings lists, so cost scales with the number of matching resources,
not with the collection size. The per-posting products ``tf · irf²``
and ``ef · eirf² · we`` do not depend on the query, so they are
memoized per term/entity and invalidated together with the collection
statistics.

This retriever and :class:`~tests.reference.ranking.ExpertRanker` are
the reference path: no query is served through them, but the tests and
``benchmarks/bench_scale.py`` check served rankings against them bit
for bit. Eq. 2's :func:`~repro.core.scoring.entity_weight` is
shared with the served path.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.scoring import entity_weight
from repro.index.analyzer import AnalyzedResource
from tests.reference.entity_index import EntityIndex
from tests.reference.inverted import InvertedIndex
from tests.reference.statistics import CollectionStatistics


@dataclass(frozen=True)
class ResourceMatch:
    """One retrieved resource with its relevance breakdown."""

    doc_id: str
    score: float
    term_score: float
    entity_score: float


class VectorSpaceRetriever:
    """Score and rank resources for an expertise need."""

    def __init__(
        self,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        statistics: CollectionStatistics | None = None,
        *,
        idf_exponent: float = 2.0,
    ):
        self._terms = term_index
        self._entities = entity_index
        self._stats = statistics or CollectionStatistics(term_index, entity_index)
        # Eq. 1 squares irf/eirf; the exponent is exposed for the
        # bench_ablation_scoring experiment.
        self._idf_exponent = idf_exponent
        # query-independent per-posting weights: term → ((doc, tf·irf^p)…)
        # and entity → ((doc, ef·eirf^p·we)…); valid only as long as the
        # collection statistics are, so both are invalidated together
        self._term_weights: dict[str, tuple[tuple[str, float], ...]] = {}
        self._entity_weights: dict[str, tuple[tuple[str, float], ...]] = {}
        self._versions = (term_index.version, entity_index.version)

    @property
    def statistics(self) -> CollectionStatistics:
        return self._stats

    @property
    def idf_exponent(self) -> float:
        """The exponent applied to irf/eirf in Eq. 1."""
        return self._idf_exponent

    @property
    def term_index(self) -> InvertedIndex:
        """The underlying term index (read-only use: snapshots, stats)."""
        return self._terms

    @property
    def entity_index(self) -> EntityIndex:
        """The underlying entity index (read-only use: snapshots, stats)."""
        return self._entities

    def invalidate(self) -> None:
        """Drop the collection statistics and the memoized per-posting
        weights. No longer required for correctness — every weight read
        compares the indexes' write versions and self-invalidates when
        documents were appended underneath (direct ``add_document`` on
        an index can never leave a stale irf observable)."""
        self._stats.invalidate()
        self._term_weights.clear()
        self._entity_weights.clear()

    def _refresh(self) -> None:
        versions = (self._terms.version, self._entities.version)
        if versions != self._versions:
            self._versions = versions
            self._term_weights.clear()
            self._entity_weights.clear()

    def add_document(self, analyzed: AnalyzedResource) -> None:
        """Append one document to both indexes (streaming updates) and
        invalidate the cached collection statistics."""
        self._terms.add_document(analyzed.doc_id, analyzed.term_counts)
        self._entities.add_document(analyzed.doc_id, analyzed.entity_counts)
        self.invalidate()

    # -- per-posting weight memoization -------------------------------------------

    def _weighted_term_postings(self, term: str) -> tuple[tuple[str, float], ...]:
        self._refresh()
        cached = self._term_weights.get(term)
        if cached is None:
            weight = self._stats.irf(term) ** self._idf_exponent
            if weight == 0.0:
                cached = ()
            else:
                cached = tuple(
                    (posting.doc_id, posting.term_frequency * weight)
                    for posting in self._terms.postings(term)
                )
            self._term_weights[term] = cached
        return cached

    def _weighted_entity_postings(self, uri: str) -> tuple[tuple[str, float], ...]:
        self._refresh()
        cached = self._entity_weights.get(uri)
        if cached is None:
            weight = self._stats.eirf(uri) ** self._idf_exponent
            if weight == 0.0:
                cached = ()
            else:
                cached = tuple(
                    (
                        posting.doc_id,
                        posting.entity_frequency
                        * weight
                        * entity_weight(posting.d_score),
                    )
                    for posting in self._entities.postings(uri)
                )
            self._entity_weights[uri] = cached
        return cached

    # -- retrieval -----------------------------------------------------------------

    def _matches(self, query: AnalyzedResource, alpha: float) -> Iterator[ResourceMatch]:
        """Accumulate Eq.-1 scores document-at-a-time; yields every
        resource with positive combined score, in no particular order."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        term_scores: dict[str, float] = {}
        entity_scores: dict[str, float] = {}

        if alpha > 0.0:
            for term in query.term_counts:
                for doc_id, weighted in self._weighted_term_postings(term):
                    term_scores[doc_id] = term_scores.get(doc_id, 0.0) + weighted

        if alpha < 1.0:
            for uri in query.entity_counts:
                for doc_id, weighted in self._weighted_entity_postings(uri):
                    entity_scores[doc_id] = entity_scores.get(doc_id, 0.0) + weighted

        # repro: lint-ok[determinism] retrieve() re-sorts with the total
        # (-score, doc_id) key, so emission order here cannot reach a
        # ranking
        for doc_id in term_scores.keys() | entity_scores.keys():
            t_score = term_scores.get(doc_id, 0.0)
            e_score = entity_scores.get(doc_id, 0.0)
            combined = alpha * t_score + (1.0 - alpha) * e_score
            if combined > 0.0:
                yield ResourceMatch(
                    doc_id=doc_id,
                    score=combined,
                    term_score=t_score,
                    entity_score=e_score,
                )

    def retrieve(self, query: AnalyzedResource, alpha: float) -> list[ResourceMatch]:
        """All resources with positive score for *query*, best first.

        Ties are broken by doc id so rankings are fully deterministic.
        """
        matches = list(self._matches(query, alpha))
        matches.sort(key=lambda match: (-match.score, match.doc_id))
        return matches
