"""Unit tests for the character-n-gram language identifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textproc.langid import _WORD_MEMO_SIZE, LanguageIdentifier, LanguageProfile
from tests.text_oracle import ReferenceIdentifier, char_ngrams, profile_distance


@pytest.fixture(scope="module")
def lid():
    return LanguageIdentifier()


class TestIdentify:
    def test_english_sentence(self, lid):
        text = "just finished thirty minutes of freestyle training at the pool"
        assert lid.identify(text) == "en"

    def test_italian_sentence(self, lid):
        text = "questa e una bella giornata per andare in piscina con gli amici"
        assert lid.identify(text) == "it"

    def test_spanish_sentence(self, lid):
        text = "hoy es un dia precioso para pasear por el centro con amigos"
        assert lid.identify(text) == "es"

    def test_french_sentence(self, lid):
        text = "le renard saute par dessus le chien et nous cherchons des reponses"
        assert lid.identify(text) == "fr"

    def test_german_sentence(self, lid):
        text = "der schnelle fuchs springt uber den faulen hund und alle menschen wissen das"
        assert lid.identify(text) == "de"

    def test_short_text_unknown(self, lid):
        assert lid.identify("ok") == LanguageIdentifier.UNKNOWN

    def test_empty_unknown(self, lid):
        assert lid.identify("") == LanguageIdentifier.UNKNOWN

    def test_numbers_only_unknown(self, lid):
        assert lid.identify("123 456 789 000 111 222") == LanguageIdentifier.UNKNOWN

    def test_latinate_english_content_words(self, lid):
        # professional vocabulary must not be mistaken for Romance
        # languages (regression: LinkedIn profiles were classified it/fr)
        text = (
            "the senior consultant was responsible for enterprise solutions and"
            " led the professional development of the industry team"
        )
        assert lid.identify(text) == "en"


class TestScores:
    def test_scores_cover_all_languages(self, lid):
        scores = lid.scores("hello world this is a test of the system")
        assert set(scores) == set(lid.languages)

    def test_scores_in_unit_interval(self, lid):
        for value in lid.scores("the quick brown fox jumps today").values():
            assert 0.0 <= value <= 1.0

    def test_english_wins_on_english(self, lid):
        scores = lid.scores("we are going to the swimming pool with friends today")
        assert max(scores, key=scores.get) == "en"

    def test_empty_text_all_zero(self, lid):
        assert all(v == 0.0 for v in lid.scores("").values())


class TestLanguageProfile:
    def test_from_text_ranks(self):
        profile = LanguageProfile.from_text("xx", "aaa aaa bbb")
        assert profile.language == "xx"
        assert len(profile.ranks) > 0

    def test_distance_zero_for_identical(self):
        profile = LanguageProfile.from_text("xx", "the cat sat on the mat")
        doc = [g for g, _ in char_ngrams("the cat sat on the mat").most_common(300)]
        assert profile_distance(profile.ranks, doc) == 0

    def test_distance_positive_for_different(self):
        profile = LanguageProfile.from_text("xx", "the cat sat on the mat")
        doc = [g for g, _ in char_ngrams("zzz qqq www").most_common(300)]
        assert profile_distance(profile.ranks, doc) > 0

    def test_custom_profiles(self):
        lid = LanguageIdentifier({"aa": "aaaa aaaa aaaa", "bb": "bbbb bbbb bbbb"})
        assert lid.identify("aaaa aaaa aaaa aaaa aaaa aaaa aaaa") == "aa"


# words the seed profiles and stop-word lists know, so texts land near
# the languages' decision boundaries and repeat words (memo hits)
_KNOWN_WORDS = (
    "the", "of", "and", "la", "il", "che", "el", "que", "le", "les",
    "der", "und", "die", "swimming", "piscina", "Tiger", "ÉCOLE", "don't",
)
# case folding that changes length, compatibility characters, combining
# marks, apostrophes, whitespace and control characters
_AWKWARD = (
    "İ", "ß", "½", "x²", "e\u0301", "\u0301", "'", "\u2019", "\t", "\n",
    "\x00", "\x7f", "\u200b", "ǅ", "Σ", "ﬁ", "١٢", " ",
)
_text = st.one_of(
    st.text(max_size=120),
    st.lists(
        st.one_of(
            st.sampled_from(_KNOWN_WORDS),
            st.sampled_from(_AWKWARD),
            st.text(min_size=1, max_size=6),
        ),
        max_size=40,
    ).map(" ".join),
    st.lists(st.sampled_from(_KNOWN_WORDS + _AWKWARD), max_size=60).map("".join),
)


@pytest.fixture(scope="module")
def reference():
    return ReferenceIdentifier()


class TestAgainstReference:
    """The table-driven kernel returns exactly what the per-language
    loops in ``tests/text_oracle.py`` return."""

    @settings(max_examples=300, deadline=None)
    @given(text=_text)
    def test_scores_and_identify_match(self, lid, reference, text):
        assert lid.scores(text) == reference.scores(text)
        assert lid.identify(text) == reference.identify(text)
        assert lid.identify(text, min_chars=0) == reference.identify(text, min_chars=0)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.dictionaries(
            st.sampled_from(["aa", "bb", "en", "it", "zz"]), _text, min_size=1, max_size=4
        ),
        size=st.integers(min_value=1, max_value=300),
        texts=st.lists(_text, min_size=1, max_size=4),
    )
    def test_custom_profiles_of_unequal_size(self, seed, size, texts):
        # profiles trained on texts of different lengths rank different
        # numbers of grams, so each carries its own unseen-gram penalty
        lid = LanguageIdentifier(seed, profile_size=size)
        reference = ReferenceIdentifier(seed, profile_size=size)
        assert [p.ranks for p in lid._profiles] == [r for _, r in reference._profiles]
        for text in texts:
            assert lid.scores(text) == reference.scores(text)
            assert lid.identify(text, min_chars=0) == reference.identify(text, min_chars=0)

    def test_penalty_is_each_profiles_own_size(self):
        seed = {"aa": "ab", "bb": "the cat sat on the mat and the dog sat on the log"}
        lid = LanguageIdentifier(seed)
        assert len(lid._profiles[0].ranks) < len(lid._profiles[1].ranks)
        text = "the quick brown fox jumps over the lazy dog"
        assert lid.scores(text) == ReferenceIdentifier(seed).scores(text)

    def test_score_tie_picks_the_first_language(self):
        seed = {"bb": "alpha beta gamma", "aa": "alpha beta gamma"}
        text = "alpha beta gamma delta epsilon zeta eta theta"
        scores = LanguageIdentifier(seed).scores(text)
        assert scores["aa"] == scores["bb"]
        assert LanguageIdentifier(seed).identify(text) == "aa"
        assert ReferenceIdentifier(seed).identify(text) == "aa"

    def test_memo_eviction_keeps_scores_exact(self, reference):
        lid = LanguageIdentifier()
        first = "the swimmer trained at the pool with friends"
        assert lid.scores(first) == reference.scores(first)
        words = [f"w{i:05d}x" for i in range(_WORD_MEMO_SIZE + 500)]
        flood = " ".join(words)
        assert lid.scores(flood) == reference.scores(flood)
        info = lid._grams.cache_info()
        assert info.currsize == _WORD_MEMO_SIZE
        assert lid.scores(first) == reference.scores(first)
