"""The reference text-analysis loops the served kernels are checked against.

Language identification, anchor spotting and control-character stripping
run table-driven kernels in :mod:`repro.textproc.langid`,
:mod:`repro.entity.spotter` and :mod:`repro.textproc.sanitizer`: one rank
table for every language profile fed by memoized per-word n-grams, a
first-token bound on anchor lengths, and an ASCII fast path. The
functions here are the plain per-character and per-n-gram loops those
kernels replaced, and no analysis runs through them, so tests compare
the kernels against them with ``==``: exact floats, the same language on
a score tie, the same spots.
"""

from __future__ import annotations

import unicodedata
from collections import Counter

from repro.entity.knowledge_base import KnowledgeBase
from repro.entity.spotter import Spot
from repro.textproc.langid import _SEED_TEXTS
from repro.textproc.stopwords import stopwords_for

PROFILE_SIZE = 300


def char_ngrams(text: str) -> Counter[str]:
    """Count padded character 1..3-grams of the word tokens in *text*."""
    counts: Counter[str] = Counter()
    for word in text.lower().split():
        if not word.isalpha():
            word = "".join(ch for ch in word if ch.isalpha())
            if not word:
                continue
        padded = f" {word} "
        for n in range(1, 4):
            for i in range(len(padded) - n + 1):
                counts[padded[i : i + n]] += 1
    return counts


def profile_ranks(text: str, size: int = PROFILE_SIZE) -> dict[str, int]:
    """The rank of each of *text*'s *size* most frequent n-grams."""
    top = [g for g, _ in char_ngrams(text).most_common(size)]
    return {g: i for i, g in enumerate(top)}


def profile_distance(ranks: dict[str, int], document_profile: list[str]) -> int:
    """Out-of-place distance between a language profile's *ranks* and a
    document's ranked n-gram list; unseen n-grams cost the maximum
    penalty, the profile's size."""
    max_penalty = len(ranks)
    total = 0
    for doc_rank, gram in enumerate(document_profile):
        lang_rank = ranks.get(gram)
        total += max_penalty if lang_rank is None else abs(lang_rank - doc_rank)
    return total


class ReferenceIdentifier:
    """:class:`~repro.textproc.langid.LanguageIdentifier` as one loop per
    language over the document profile."""

    UNKNOWN = "und"

    def __init__(self, profiles: dict[str, str] | None = None, profile_size: int = PROFILE_SIZE):
        seed = profiles if profiles is not None else _SEED_TEXTS
        self._profiles = [
            (lang, profile_ranks(text, profile_size)) for lang, text in sorted(seed.items())
        ]

    def scores(self, text: str) -> dict[str, float]:
        counts = char_ngrams(text)
        if not counts:
            return {lang: 0.0 for lang, _ in self._profiles}
        doc_profile = [g for g, _ in counts.most_common(PROFILE_SIZE)]
        worst = max(1, len(doc_profile) * PROFILE_SIZE)
        tokens = [t for t in text.lower().split() if any(c.isalpha() for c in t)]
        out: dict[str, float] = {}
        for lang, ranks in self._profiles:
            ngram_score = 1.0 - profile_distance(ranks, doc_profile) / worst
            stop = stopwords_for(lang)
            coverage = sum(1 for t in tokens if t in stop) / len(tokens) if tokens else 0.0
            out[lang] = 0.5 * ngram_score + 0.5 * min(1.0, 3.0 * coverage)
        return out

    def identify(self, text: str, *, min_chars: int = 25) -> str:
        alpha = sum(1 for ch in text if ch.isalpha())
        if alpha < min_chars:
            return self.UNKNOWN
        scores = self.scores(text)
        return max(scores.items(), key=lambda kv: kv[1])[0]


def reference_spot(kb: KnowledgeBase, tokens: list[str] | tuple[str, ...]) -> list[Spot]:
    """Greedy longest-first, left-to-right spotting that tries every
    length up to the KB's longest anchor at every position."""
    max_len = kb.max_anchor_length
    spots: list[Spot] = []
    i = 0
    n = len(tokens)
    while i < n:
        matched = False
        for length in range(min(max_len, n - i), 0, -1):
            surface = tuple(tokens[i : i + length])
            candidates = kb.anchor_candidates(surface)
            if candidates:
                spots.append(
                    Spot(start=i, end=i + length, surface=surface, candidates=tuple(candidates))
                )
                i += length
                matched = True
                break
        if not matched:
            i += 1
    return spots


def reference_strip_control_chars(text: str) -> str:
    """Drop non-printable/control characters, normalizing to NFC."""
    text = unicodedata.normalize("NFC", text)
    return "".join(ch for ch in text if unicodedata.category(ch)[0] != "C" or ch in "\t\n ")
