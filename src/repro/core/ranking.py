"""Expert ranking (paper Sec. 2.4.1): the ranked expert list's entries.

:class:`ExpertScore` is one candidate of the list EX with its Eq. 3
score, as :meth:`repro.index.segments.SegmentedIndex.find_experts`
returns it. :func:`check_top_k` is the one check of a ``find_experts``
call's ``top_k``, shared by the finder and the baselines.
"""

from __future__ import annotations


def check_top_k(top_k: int | None) -> None:
    """``top_k`` is None (the full list) or a non-negative, non-bool int."""
    if top_k is not None and (
        isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 0
    ):
        raise ValueError(f"top_k must be None or a non-negative int, got {top_k!r}")


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
