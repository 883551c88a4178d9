"""Anchor spotting: find knowledge-base anchors in tokenized text.

The spotter scans token n-grams (longest first, greedily, left to right)
against the KB anchor dictionary, so "new york city" is spotted as one
anchor rather than as "new york" + "city". Overlapping spots are resolved
in favour of the longer one, matching TAGME's parsing of short texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count

from repro.entity.knowledge_base import KnowledgeBase


@dataclass(frozen=True)
class Spot:
    """A candidate mention found in the text."""

    start: int  # token offset, inclusive
    end: int  # token offset, exclusive
    surface: tuple[str, ...]
    #: (entity_uri, commonness), best first
    candidates: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("Spot must span at least one token")
        if not self.candidates:
            raise ValueError("Spot must have at least one candidate")


class Spotter:
    """Greedy longest-match anchor spotter."""

    def __init__(self, kb: KnowledgeBase):
        self._kb = kb

    def spot(self, tokens: list[str] | tuple[str, ...]) -> list[Spot]:
        """Return the non-overlapping spots in *tokens*, left to right.

        Tokens are expected lowercase and unstemmed (anchors are surface
        forms, not stems).
        """
        # read at spot time, so anchors added after construction count
        longest_from = self._kb.longest_anchor_from
        spots: list[Spot] = []
        n = len(tokens)
        consumed = 0  # tokens before this offset belong to earlier spots
        # only positions whose token starts some anchor can start a spot
        for i in compress(count(), map(longest_from.__contains__, tokens)):
            if i < consumed:
                continue
            # no anchor starting with tokens[i] is longer than this
            for length in range(min(longest_from[tokens[i]], n - i), 0, -1):
                surface = tuple(tokens[i : i + length])
                candidates = self._kb.anchor_candidates(surface)
                if candidates:
                    spots.append(
                        Spot(
                            start=i,
                            end=i + length,
                            surface=surface,
                            candidates=tuple(candidates),
                        )
                    )
                    consumed = i + length
                    break
        return spots
