# repro: lint-module[repro.core.reference.ranking]
"""The reference window cut and Eq. 3 fold over :class:`ResourceMatch`
lists: :func:`apply_window` and :class:`ExpertRanker`, the dict walk
``SegmentedIndex._rank`` is checked against with ``==``."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.config import FinderConfig
from repro.core.ranking import ExpertScore
from repro.core.scoring import distance_weight_table, window_size
from tests.reference.vsm import ResourceMatch


def apply_window(
    matches: Sequence[ResourceMatch], window: int | float | None
) -> Sequence[ResourceMatch]:
    """Keep the top-*window* matches (input must already be sorted by
    decreasing score, as :meth:`VectorSpaceRetriever.retrieve` returns)."""
    return matches[: window_size(window, len(matches))]


class ExpertRanker:
    """Apply the window and Eq. 3, producing the ordered expert list EX.

    *evidence_of* maps doc id → ((candidate_id, distance), ...) as built
    by the finder from the Table-1 gathering.
    """

    def __init__(
        self,
        evidence_of: Mapping[str, Sequence[tuple[str, int]]],
        config: FinderConfig,
    ):
        self._evidence_of = evidence_of
        self._config = config

    def rank(self, matches: Sequence[ResourceMatch]) -> list[ExpertScore]:
        """Rank the candidates supported by *matches* (already sorted by
        decreasing relevance). Only candidates with score > 0 appear —
        the paper's EX ⊆ CE with score(q, ce) > 0.

        Eq.-3 aggregation and support counting share one pass over the
        windowed matches, with ``wr`` looked up in a precomputed
        per-distance table — the float summation order (and therefore
        every score) is identical to folding them separately.
        """
        windowed = apply_window(matches, self._config.window)
        max_distance = self._config.max_distance
        weight_of = distance_weight_table(max_distance, self._config.weight_interval)
        scores: dict[str, float] = {}
        support: dict[str, int] = {}
        for match in windowed:
            match_score = match.score
            for candidate_id, distance in self._evidence_of.get(match.doc_id, ()):
                weight = weight_of.get(distance)
                if weight is None:
                    raise ValueError(
                        f"distance {distance} outside 0..{max_distance}"
                    )
                scores[candidate_id] = (
                    scores.get(candidate_id, 0.0) + match_score * weight
                )
                support[candidate_id] = support.get(candidate_id, 0) + 1
        if self._config.normalize:
            scores = {
                cid: score / support[cid] for cid, score in scores.items() if support.get(cid)
            }
        ranked = [
            ExpertScore(
                candidate_id=cid, score=score, supporting_resources=support.get(cid, 0)
            )
            for cid, score in scores.items()
            if score > 0.0
        ]
        ranked.sort(key=lambda e: (-e.score, e.candidate_id))
        return ranked
