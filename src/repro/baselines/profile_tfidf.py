"""The classic profile-matching baseline.

"The classic approach to this problem consists in profiling the group
members, matching textual queries against such profiles, and ranking
members according to the matching" (paper Sec. 1). This baseline does
exactly that: TF-IDF vectors over profile text only, cosine similarity
against the query — no behavioural trace at all.

It differs from the paper's distance-0 configuration in the similarity
function (length-normalized cosine vs. Eq. 1's unnormalized dot
product), making it a genuinely independent comparator. It also reads
every profile, whatever language it is identified as: a distance-0
finder would drop the non-English ones at its language cut.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertScore, check_top_k
from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer
from repro.socialgraph.distance import candidate_seeds


class ProfileTfidfFinder:
    """Cosine TF-IDF over candidate profiles."""

    def __init__(
        self,
        analyzer: ResourceAnalyzer,
        profile_vectors: dict[str, dict[str, float]],
        idf: dict[str, float],
    ):
        self._analyzer = analyzer
        self._vectors = profile_vectors
        self._idf = idf

    @classmethod
    def build(
        cls,
        candidates: Mapping[str, Sequence[str]] | Sequence[str],
        corpus: Mapping[str, AnalyzedResource],
        analyzer: ResourceAnalyzer,
    ) -> "ProfileTfidfFinder":
        """Vectorize each candidate's (possibly multi-platform) profile
        text from its profiles' *corpus* entries; a profile missing from
        *corpus* raises ``ValueError``. *analyzer* analyzes the needs."""
        raw_counts: dict[str, dict[str, int]] = {}
        for candidate_id, profile_ids in candidate_seeds(candidates).items():
            counts: dict[str, int] = {}
            for profile_id in profile_ids:
                analysis = corpus.get(profile_id)
                if analysis is None:
                    raise ValueError(f"profile {profile_id!r} is not in the corpus")
                for term, count in analysis.term_counts.items():
                    counts[term] = counts.get(term, 0) + count
            raw_counts[candidate_id] = counts

        document_frequency: dict[str, int] = {}
        for counts in raw_counts.values():
            for term in counts:
                document_frequency[term] = document_frequency.get(term, 0) + 1
        n = max(1, len(raw_counts))
        idf = {
            term: math.log(1 + n / df) for term, df in document_frequency.items()
        }
        vectors = {
            cid: {term: count * idf[term] for term, count in counts.items()}
            for cid, counts in raw_counts.items()
        }
        return cls(analyzer, vectors, idf)

    def find_experts(
        self, need: ExpertiseNeed | str, *, top_k: int | None = None
    ) -> list[ExpertScore]:
        """Rank candidates by cosine similarity of profile to query."""
        check_top_k(top_k)
        text = need.text if isinstance(need, ExpertiseNeed) else need
        analysis = self._analyzer.analyze("__query__", text, language="en")
        query_vector = {
            term: count * self._idf.get(term, 0.0)
            for term, count in analysis.term_counts.items()
        }
        query_norm = math.sqrt(sum(w * w for w in query_vector.values()))
        if query_norm == 0.0:
            return []
        ranked = []
        for candidate_id, vector in self._vectors.items():
            dot = sum(
                weight * vector.get(term, 0.0) for term, weight in query_vector.items()
            )
            norm = math.sqrt(sum(w * w for w in vector.values()))
            if dot > 0 and norm > 0:
                ranked.append(
                    ExpertScore(
                        candidate_id=candidate_id,
                        score=dot / (norm * query_norm),
                        supporting_resources=1,
                    )
                )
        ranked.sort(key=lambda e: (-e.score, e.candidate_id))
        return ranked[:top_k]
