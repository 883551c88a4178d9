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

Both models rank an :class:`~repro.core.expert_finder.ExpertFinder`'s
own collection, so they compare with the paper's system on scoring
alone: the finder's term columns give ``p(t | d)`` and the document
lengths, and its evidence rows, weighted by its ``wr`` table, give
``a(d, ca)``. Distance, friends and the ``wr`` interval are the finder's
``FinderConfig``; smoothing is the models' one option.
"""

from __future__ import annotations

import math

from scipy.special import logsumexp

from repro.core.expert_finder import ExpertFinder
from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertScore, check_top_k
from repro.core.scoring import distance_weight_table
from repro.index.segments import Segment

_LOG_FLOOR = -700.0  # below exp() underflow; stands in for log(0)


def _term_counts(segment: Segment) -> dict[str, dict[str, int]]:
    """Each indexed document of *segment*, in doc-index order, with its
    term counts read back from the term postings."""
    doc_ids = segment.doc_ids
    counts: dict[str, dict[str, int]] = {doc_id: {} for doc_id in doc_ids}
    group = segment.term_columns
    terms = list(group.views)
    docs, tfs = (column.tolist() for column in group.columns[:2])
    bounds = group.off.tolist()
    for key, term in enumerate(terms):
        for at in range(bounds[key], bounds[key + 1]):
            counts[doc_ids[docs[at]]][term] = tfs[at]
    return counts


class _BalogBase:
    """Shared construction: read the finder's documents, normalize its
    associations, accumulate collection statistics."""

    def __init__(self, finder: ExpertFinder, *, smoothing: float = 0.5):
        """Read *finder*'s live collection — its sealed segments, oldest
        first, then its write buffer as the segment it would seal into,
        as a snapshot writes them. The model keeps a copy of the
        collection as it stood at this call: later observes on *finder*
        do not reach it. *smoothing* is the Jelinek–Mercer weight ``λ``
        of the collection model, in (0, 1)."""
        if not 0.0 < smoothing < 1.0:
            raise ValueError("smoothing must be in (0, 1)")
        self._analyze_need = finder.analyze_need
        self._smoothing = smoothing
        index = finder.segmented_index
        sources = list(index.iter_segments())
        if index.write_buffer.resource_count:
            sources.append(index.write_buffer.as_segment(-1))
        config = finder.config
        wr = distance_weight_table(config.max_distance, config.weight_interval)

        #: doc id → {term → tf}
        self._documents: dict[str, dict[str, int]] = {}
        weights: dict[str, dict[str, float]] = {}
        for segment in sources:
            documents = _term_counts(segment)
            self._documents.update(documents)
            csr = segment.evidence_csr
            off, cand, dist = csr.off.tolist(), csr.cand.tolist(), csr.dist.tolist()
            # resources in stream order, so each candidate's documents are
            # in collection order
            for i, resource in enumerate(csr.resources):
                if resource not in documents:
                    continue
                for row in range(off[i], off[i + 1]):
                    supported = weights.setdefault(csr.candidates[cand[row]], {})
                    supported[resource] = wr[dist[row]]
        self._associations: dict[str, dict[str, float]] = {}  # candidate → a(d, ca)
        for candidate_id, of_doc in weights.items():
            total = sum(of_doc.values())
            if total > 0:
                self._associations[candidate_id] = {
                    doc_id: weight / total for doc_id, weight in of_doc.items()
                }
        self._doc_lengths: dict[str, int] = {}
        self._collection_counts: dict[str, int] = {}
        for doc_id, counts in self._documents.items():
            self._doc_lengths[doc_id] = max(1, sum(counts.values()))
            for term, count in counts.items():
                self._collection_counts[term] = (
                    self._collection_counts.get(term, 0) + count
                )
        self._collection_total = max(1, sum(self._collection_counts.values()))

    # -- shared probability pieces -----------------------------------------------

    def _p_term_collection(self, term: str) -> float:
        return self._collection_counts.get(term, 0) / self._collection_total

    def _p_term_document(self, term: str, doc_id: str) -> float:
        return self._documents[doc_id].get(term, 0) / self._doc_lengths[doc_id]

    def _query_terms(self, need: ExpertiseNeed | str) -> dict[str, int]:
        """Query term counts, restricted to the collection vocabulary —
        out-of-vocabulary terms have zero probability under every model
        and would floor all candidates equally (standard LM practice is
        to drop them)."""
        return {
            term: count
            for term, count in self._analyze_need(need).term_counts.items()
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
        check_top_k(top_k)
        query = self._query_terms(need)
        if not query:
            return []
        lam = self._smoothing
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
        check_top_k(top_k)
        query = self._query_terms(need)
        if not query:
            return []
        lam = self._smoothing
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
                self._documents[doc_id].get(term, 0) > 0
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
