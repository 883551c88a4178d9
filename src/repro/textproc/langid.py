"""Character-n-gram language identification (Cavnar & Trenkle, 1994).

The paper's pipeline classifies every resource by its main language and
keeps only English text. We implement the classic rank-order profile
method: a language profile is the frequency-ranked list of character
1–3-grams; a document is classified by the minimal "out-of-place"
distance between its profile and each language profile.

Profiles are trained from compact built-in seed texts, which is accurate
enough to separate the five supported European languages on the short,
noisy resources this system processes. Scores are exposed so callers can
apply a confidence threshold.

Every resource is identified, so the classifier is table-driven: all
profiles share one rank table, a document profile is scored against
every language in one walk of it, and each word's n-grams come from a
bounded per-identifier memo. The results are exactly those of one
distance loop per language (``tests/text_oracle.py`` keeps that loop).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from repro.textproc.stopwords import stopwords_for

_SEED_TEXTS: dict[str, str] = {
    "en": (
        "the quick brown fox jumps over the lazy dog and the people of the "
        "world know that this is the best way to learn about the things "
        "that happen every day when we are looking for answers to all of "
        "our questions about life science sport music and technology there "
        "is always someone who can help you find what you need because "
        "sharing knowledge with other people is one of the most important "
        "things that we can do together in this great community of friends"
    ),
    "it": (
        "la volpe veloce salta sopra il cane pigro e tutte le persone del "
        "mondo sanno che questo e il modo migliore per imparare le cose che "
        "succedono ogni giorno quando cerchiamo le risposte alle nostre "
        "domande sulla vita la scienza lo sport la musica e la tecnologia "
        "ce sempre qualcuno che puo aiutarti a trovare quello che ti serve "
        "perche condividere la conoscenza con gli altri e una delle cose "
        "piu importanti che possiamo fare insieme in questa grande comunita"
    ),
    "es": (
        "el zorro veloz salta sobre el perro perezoso y toda la gente del "
        "mundo sabe que esta es la mejor manera de aprender sobre las cosas "
        "que pasan cada dia cuando buscamos respuestas a todas nuestras "
        "preguntas sobre la vida la ciencia el deporte la musica y la "
        "tecnologia siempre hay alguien que puede ayudarte a encontrar lo "
        "que necesitas porque compartir el conocimiento con otras personas "
        "es una de las cosas mas importantes que podemos hacer juntos"
    ),
    "fr": (
        "le renard rapide saute par dessus le chien paresseux et tous les "
        "gens du monde savent que cest la meilleure facon dapprendre les "
        "choses qui arrivent chaque jour quand nous cherchons des reponses "
        "a toutes nos questions sur la vie la science le sport la musique "
        "et la technologie il y a toujours quelquun qui peut vous aider a "
        "trouver ce dont vous avez besoin parce que partager la "
        "connaissance avec les autres est une des choses les plus "
        "importantes que nous pouvons faire ensemble dans cette communaute"
    ),
    "de": (
        "der schnelle braune fuchs springt uber den faulen hund und alle "
        "menschen der welt wissen dass dies der beste weg ist um uber die "
        "dinge zu lernen die jeden tag passieren wenn wir nach antworten "
        "auf alle unsere fragen uber das leben die wissenschaft den sport "
        "die musik und die technologie suchen es gibt immer jemanden der "
        "dir helfen kann das zu finden was du brauchst denn das teilen von "
        "wissen mit anderen menschen ist eines der wichtigsten dinge die "
        "wir zusammen in dieser grossen gemeinschaft tun konnen"
    ),
}

_PROFILE_SIZE = 300
_MAX_NGRAM = 3
#: distinct words whose n-grams one identifier memoizes: words repeat
#: heavily across a social corpus, and the bound caps the memo's memory
_WORD_MEMO_SIZE = 4096


def _word_grams(word: str) -> tuple[str, ...]:
    """The padded character 1..3-grams of one lowercase *word*: every
    1-gram, then every 2-gram, then every 3-gram, left to right. That is
    the order in which a text's n-gram counts are first inserted, which
    breaks frequency ties in its profile. Non-letters are dropped, so a
    word without letters has no n-grams."""
    if not word.isalpha():
        word = "".join(ch for ch in word if ch.isalpha())
        if not word:
            return ()
    padded = f" {word} "
    return tuple(
        padded[i : i + n]
        for n in range(1, _MAX_NGRAM + 1)
        for i in range(len(padded) - n + 1)
    )


def _ranked_grams(grams: Iterable[str], size: int) -> list[str]:
    """The *size* most frequent of *grams*, ties in first-seen order."""
    return [g for g, _ in Counter(grams).most_common(size)]


@dataclass(frozen=True)
class LanguageProfile:
    """A frequency-ranked n-gram profile for one language."""

    language: str
    ranks: dict[str, int] = field(repr=False)

    @classmethod
    def from_text(cls, language: str, text: str, size: int = _PROFILE_SIZE) -> "LanguageProfile":
        grams = chain.from_iterable(map(_word_grams, text.lower().split()))
        top = _ranked_grams(grams, size)
        return cls(language=language, ranks={g: i for i, g in enumerate(top)})


class LanguageIdentifier:
    """Classify short texts into one of the supported languages.

    >>> lid = LanguageIdentifier()
    >>> lid.identify("just finished thirty minutes of freestyle training at the pool")
    'en'
    >>> lid.identify("questa e una bella giornata per andare in piscina con gli amici")
    'it'
    """

    #: returned when the text carries too little signal to classify
    UNKNOWN = "und"

    def __init__(self, profiles: dict[str, str] | None = None, profile_size: int = _PROFILE_SIZE):
        seed = profiles if profiles is not None else _SEED_TEXTS
        self._profiles = [
            LanguageProfile.from_text(lang, text, profile_size)
            for lang, text in sorted(seed.items())
        ]
        # every profile folded into one table, gram → (profile index,
        # rank) for each profile that ranks it, so a document profile is
        # scored against all languages with one lookup per gram
        table: dict[str, list[tuple[int, int]]] = {}
        for k, profile in enumerate(self._profiles):
            for gram, rank in profile.ranks.items():
                table.setdefault(gram, []).append((k, rank))
        self._ranks = {gram: tuple(row) for gram, row in table.items()}
        # a gram a profile lacks costs that profile's size (custom
        # profiles can be smaller than profile_size)
        self._penalties = tuple(len(p.ranks) for p in self._profiles)
        self._stopwords = tuple(stopwords_for(p.language) for p in self._profiles)
        self._grams = lru_cache(maxsize=_WORD_MEMO_SIZE)(_word_grams)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(p.language for p in self._profiles)

    def scores(self, text: str) -> dict[str, float]:
        """Normalized similarity per language in [0, 1]; higher is better.

        Blends the n-gram profile similarity with function-word coverage
        (the fraction of tokens that are stop words of the language) —
        the n-gram signal alone is unreliable on content-word-heavy text
        such as professional profiles, where Latinate vocabulary mimics
        Romance-language character statistics.
        """
        words = text.lower().split()
        word_grams = list(map(self._grams, words))
        doc_profile = _ranked_grams(chain.from_iterable(word_grams), _PROFILE_SIZE)
        if not doc_profile:
            return {p.language: 0.0 for p in self._profiles}
        # out-of-place distances, summed as exact ints: a gram costs a
        # profile |its rank − the document rank|, or the profile's penalty
        # where it lacks the gram (every gram starts out lacking)
        penalties = self._penalties
        distances = [len(doc_profile) * penalty for penalty in penalties]
        for doc_rank, row in enumerate(map(self._ranks.get, doc_profile)):
            if row is not None:
                for k, rank in row:
                    distances[k] += abs(rank - doc_rank) - penalties[k]
        worst = len(doc_profile) * _PROFILE_SIZE
        # the tokens are the words with a letter, i.e. with n-grams
        tokens = [word for word, grams in zip(words, word_grams) if grams]
        out: dict[str, float] = {}
        for p, distance, stop in zip(self._profiles, distances, self._stopwords):
            ngram_score = 1.0 - distance / worst
            coverage = sum(map(stop.__contains__, tokens)) / len(tokens)
            out[p.language] = 0.5 * ngram_score + 0.5 * min(1.0, 3.0 * coverage)
        return out

    def identify(self, text: str, *, min_chars: int = 25) -> str:
        """Return the most likely ISO-639-1 code, or :data:`UNKNOWN` when
        *text* has fewer than *min_chars* alphabetic characters."""
        if sum(map(str.isalpha, text)) < min_chars:
            return self.UNKNOWN
        scores = self.scores(text)
        return max(scores.items(), key=lambda kv: kv[1])[0]
