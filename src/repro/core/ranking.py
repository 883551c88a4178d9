"""Expert ranking (paper Sec. 2.4.1): from resource matches to a ranked
expert list."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.config import FinderConfig
from repro.core.scoring import apply_window, distance_weight_table
from repro.index.vsm import ResourceMatch


class ExpertScore:
    """One ranked expert with the expertise score of Eq. 3.

    Hand-written immutable value class rather than a frozen dataclass:
    the query path builds one instance per ranked candidate on every
    uncached query, and the generated frozen ``__init__`` measured ~40%
    slower than this one. Field semantics, equality, hashing, repr, and
    the positive-score invariant are unchanged.
    """

    __slots__ = ("candidate_id", "score", "supporting_resources")
    __match_args__ = ("candidate_id", "score", "supporting_resources")

    candidate_id: str
    score: float
    #: number of windowed relevant resources that supported the candidate
    supporting_resources: int

    def __init__(
        self, candidate_id: str, score: float, supporting_resources: int
    ) -> None:
        if score <= 0.0:
            raise ValueError("ExpertScore.score must be positive (EX keeps score > 0)")
        object.__setattr__(self, "candidate_id", candidate_id)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "supporting_resources", supporting_resources)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ExpertScore is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ExpertScore is immutable (cannot delete {name!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ExpertScore:
            return (
                self.candidate_id == other.candidate_id
                and self.score == other.score
                and self.supporting_resources == other.supporting_resources
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.candidate_id, self.score, self.supporting_resources))

    def __repr__(self) -> str:
        return (
            f"ExpertScore(candidate_id={self.candidate_id!r}, "
            f"score={self.score!r}, "
            f"supporting_resources={self.supporting_resources!r})"
        )

    def __reduce__(
        self,
    ) -> tuple[type["ExpertScore"], tuple[str, float, int]]:
        return (
            ExpertScore,
            (self.candidate_id, self.score, self.supporting_resources),
        )


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
