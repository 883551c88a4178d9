"""Balog's generative expert-finding models (Models 1 and 2).

Balog, *People Search in the Enterprise* (2008) — the paper's reference
[3] — formalizes expert finding as estimating ``p(q | candidate)``:

**Model 1 (candidate model).** Build one language model per candidate
by pooling the candidate's associated documents, then smooth with the
collection model::

    p(t | θ_ca) = (1 − λ) · Σ_d  p(t | d) · a(d, ca)  +  λ · p(t)
    score(ca)   = Σ_t  n(t, q) · log p(t | θ_ca)

**Model 2 (document model).** Documents generate the query; candidates
aggregate their documents::

    p(q | ca) = Σ_d  a(d, ca) · Π_t ((1 − λ) p(t | d) + λ p(t))^n(t, q)

In the enterprise setting the document–candidate association ``a(d,
ca)`` must be mined from text; in the social setting it is explicit —
exactly the paper's point — so we reuse the Table-1 evidence with the
same distance weights ``wr``, normalized per candidate.

Both models are built from the evidence an ``ExpertFinder`` indexes:
the same ``gather_many`` traversal, and the same
``CorpusAnalyzer.analyze_nodes`` loop for nodes missing from the shared
corpus (platform language annotations included; a cold build here reads
no linked pages, as the builders take no ``url_content``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from scipy.special import logsumexp

from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertScore
from repro.core.scoring import distance_weight
from repro.extraction.crawler import CorpusAnalyzer
from repro.index.analyzer import INDEXABLE_LANGUAGES, AnalyzedResource, ResourceAnalyzer
from repro.socialgraph.distance import ResourceGatherer, candidate_seeds
from repro.socialgraph.graph import SocialGraph

_LOG_FLOOR = -700.0  # below exp() underflow; stands in for log(0)


@dataclass(frozen=True)
class BalogConfig:
    """Parameters shared by both Balog models."""

    #: Jelinek–Mercer smoothing weight of the collection model
    smoothing: float = 0.5
    #: maximum evidence distance (same semantics as FinderConfig)
    max_distance: int = 2
    #: wr interval for the association strength a(d, ca)
    weight_interval: tuple[float, float] = (0.5, 1.0)
    include_friends: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing < 1.0:
            raise ValueError("smoothing must be in (0, 1)")
        if not 0 <= self.max_distance <= 2:
            raise ValueError("max_distance must be in 0..2")


class _BalogBase:
    """Shared construction: gather evidence, normalize associations,
    accumulate collection statistics."""

    def __init__(
        self,
        analyzer: ResourceAnalyzer,
        config: BalogConfig,
        documents: dict[str, AnalyzedResource],
        associations: dict[str, dict[str, float]],
    ):
        self._analyzer = analyzer
        self._config = config
        self._documents = documents
        self._associations = associations  # candidate → {doc → a(d, ca)}
        self._doc_lengths = {
            doc_id: max(1, analysis.length) for doc_id, analysis in documents.items()
        }
        self._collection_counts: dict[str, int] = {}
        total = 0
        for analysis in documents.values():
            for term, count in analysis.term_counts.items():
                self._collection_counts[term] = (
                    self._collection_counts.get(term, 0) + count
                )
                total += count
        self._collection_total = max(1, total)

    @classmethod
    def build(
        cls,
        graph: SocialGraph,
        candidates: Mapping[str, Sequence[str]] | Sequence[str],
        analyzer: ResourceAnalyzer,
        config: BalogConfig | None = None,
        *,
        corpus: Mapping[str, AnalyzedResource] | None = None,
    ):
        """Assemble a Balog finder over the same inputs ExpertFinder
        takes (graph + candidate map + analyzer [+ shared corpus])."""
        config = config or BalogConfig()
        gathered = ResourceGatherer(
            graph, include_friends=config.include_friends
        ).gather_many(candidate_seeds(candidates), config.max_distance)
        documents, _ = CorpusAnalyzer(analyzer).analyze_nodes(
            graph, gathered.kinds, corpus
        )
        associations: dict[str, dict[str, float]] = {}
        for candidate_id, node_distance in gathered.distances.items():
            weights = {
                node_id: distance_weight(
                    distance, config.max_distance, config.weight_interval
                )
                for node_id, distance in node_distance.items()
                if documents[node_id].language in INDEXABLE_LANGUAGES
            }
            total = sum(weights.values())
            if total > 0:
                associations[candidate_id] = {
                    node_id: weight / total for node_id, weight in weights.items()
                }
        documents = {
            doc_id: analysis
            for doc_id, analysis in documents.items()
            if analysis.language in INDEXABLE_LANGUAGES
        }
        return cls(analyzer, config, documents, associations)

    # -- shared probability pieces -----------------------------------------------

    def _p_term_collection(self, term: str) -> float:
        return self._collection_counts.get(term, 0) / self._collection_total

    def _p_term_document(self, term: str, doc_id: str) -> float:
        analysis = self._documents[doc_id]
        return analysis.term_counts.get(term, 0) / self._doc_lengths[doc_id]

    def _query_terms(self, need: ExpertiseNeed | str) -> dict[str, int]:
        """Query term counts, restricted to the collection vocabulary —
        out-of-vocabulary terms have zero probability under every model
        and would floor all candidates equally (standard LM practice is
        to drop them)."""
        text = need.text if isinstance(need, ExpertiseNeed) else need
        analysis = self._analyzer.analyze("__query__", text, language="en")
        return {
            term: count
            for term, count in analysis.term_counts.items()
            if self._collection_counts.get(term, 0) > 0
        }

    def _rank(self, log_scores: dict[str, float]) -> list[ExpertScore]:
        """Shift log-likelihoods into positive scores and sort. Scores
        are exp-normalized against the best candidate, so the top expert
        gets 1.0 and the rest fall off proportionally — positive as
        ExpertScore requires, and monotone in the log-likelihood."""
        if not log_scores:
            return []
        best = max(log_scores.values())
        ranked = [
            ExpertScore(
                candidate_id=cid,
                score=math.exp(max(value - best, _LOG_FLOOR)),
                supporting_resources=len(self._associations.get(cid, ())),
            )
            for cid, value in log_scores.items()
            if value > _LOG_FLOOR
        ]
        ranked.sort(key=lambda e: (-e.score, e.candidate_id))
        return ranked


class CandidateModelFinder(_BalogBase):
    """Balog Model 1: a pooled, smoothed language model per candidate."""

    def find_experts(
        self, need: ExpertiseNeed | str, *, top_k: int | None = None
    ) -> list[ExpertScore]:
        query = self._query_terms(need)
        if not query:
            return []
        lam = self._config.smoothing
        log_scores: dict[str, float] = {}
        for candidate_id, assoc in self._associations.items():
            total = 0.0
            matched = False
            for term, count in query.items():
                p_doc_mix = sum(
                    self._p_term_document(term, doc_id) * a
                    for doc_id, a in assoc.items()
                )
                p_term = (1 - lam) * p_doc_mix + lam * self._p_term_collection(term)
                if p_doc_mix > 0:
                    matched = True
                total += count * (math.log(p_term) if p_term > 0 else _LOG_FLOOR)
            # candidates with zero query-term mass everywhere stay out of
            # EX, mirroring score(q, ce) > 0 in the paper's formulation
            if matched:
                log_scores[candidate_id] = total
        return self._rank(log_scores)[:top_k]


class DocumentModelFinder(_BalogBase):
    """Balog Model 2: documents generate the query; candidates sum
    their documents' likelihoods (log-sum-exp for stability)."""

    def find_experts(
        self, need: ExpertiseNeed | str, *, top_k: int | None = None
    ) -> list[ExpertScore]:
        query = self._query_terms(need)
        if not query:
            return []
        lam = self._config.smoothing
        # per-document log p(q | d), computed once and reused across
        # candidates sharing the document
        log_p_q_doc: dict[str, float] = {}

        def doc_loglik(doc_id: str) -> float:
            cached = log_p_q_doc.get(doc_id)
            if cached is not None:
                return cached
            total = 0.0
            for term, count in query.items():
                p = (1 - lam) * self._p_term_document(term, doc_id) + lam * (
                    self._p_term_collection(term)
                )
                total += count * (math.log(p) if p > 0 else _LOG_FLOOR)
            log_p_q_doc[doc_id] = total
            return total

        log_scores: dict[str, float] = {}
        for candidate_id, assoc in self._associations.items():
            matched = any(
                self._documents[doc_id].term_counts.get(term, 0) > 0
                for doc_id in assoc
                for term in query
            )
            if not matched:
                continue
            parts = [
                doc_loglik(doc_id) + math.log(a)
                for doc_id, a in assoc.items()
                if a > 0
            ]
            if parts:
                log_scores[candidate_id] = float(logsumexp(parts))
        return self._rank(log_scores)[:top_k]
