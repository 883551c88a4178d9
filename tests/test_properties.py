"""Property-based tests (hypothesis) on the core data structures and
invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import distance_weight, window_size
from repro.evaluation.metrics import (
    average_precision,
    dcg,
    eleven_point_precision,
    f1_score,
    ideal_dcg,
    ndcg,
    precision_at_k,
    reciprocal_rank,
)
from repro.textproc.sanitizer import sanitize
from repro.textproc.stemmer import PorterStemmer
from repro.textproc.tokenizer import tokenize
from tests.reference.entity_index import EntityIndex
from tests.reference.inverted import InvertedIndex
from tests.reference.statistics import CollectionStatistics

_STEM = PorterStemmer().stem

ids = st.text(alphabet="abcdefghij", min_size=1, max_size=4)
rankings = st.lists(ids, unique=True, max_size=12)
relevant_sets = st.frozensets(ids, max_size=12)


# -- text processing ----------------------------------------------------------


@given(st.text(max_size=300))
def test_sanitize_never_raises_and_is_idempotent(text):
    once = sanitize(text)
    assert sanitize(once) == once


@given(st.text(max_size=300))
def test_tokens_are_lowercase_and_bounded(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert 1 <= len(token) <= 64


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
def test_stem_never_longer_than_word(word):
    assert len(_STEM(word)) <= len(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
def test_stem_deterministic(word):
    assert _STEM(word) == _STEM(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=30))
def test_stem_nonempty_for_real_words(word):
    assert _STEM(word)


# -- ranking metrics ------------------------------------------------------------


@given(rankings, relevant_sets)
def test_average_precision_in_unit_interval(ranking, relevant):
    assert 0.0 <= average_precision(ranking, relevant) <= 1.0


@given(rankings, relevant_sets)
def test_reciprocal_rank_in_unit_interval(ranking, relevant):
    assert 0.0 <= reciprocal_rank(ranking, relevant) <= 1.0


@given(rankings, relevant_sets, st.integers(min_value=1, max_value=20))
def test_precision_bounded(ranking, relevant, k):
    assert 0.0 <= precision_at_k(ranking, relevant, k) <= 1.0


@given(rankings, relevant_sets)
def test_perfect_ranking_maximizes_ap(ranking, relevant):
    """Putting all relevant items first yields AP ≥ any other order of
    the same retrieved set (here: the given one), provided everything
    relevant is retrieved."""
    retrieved_relevant = [r for r in ranking if r in relevant]
    others = [r for r in ranking if r not in relevant]
    ideal = retrieved_relevant + others
    if set(retrieved_relevant) == set(relevant):
        assert average_precision(ideal, relevant) >= average_precision(ranking, relevant)


@given(
    rankings,
    st.dictionaries(ids, st.floats(min_value=0.0, max_value=7.0), max_size=12),
)
def test_ndcg_bounded(ranking, gains):
    assert 0.0 <= ndcg(ranking, gains) <= 1.0 + 1e-9


@given(
    rankings,
    st.dictionaries(ids, st.floats(min_value=0.0, max_value=7.0), max_size=12),
    st.integers(min_value=1, max_value=25),
)
def test_dcg_below_ideal(ranking, gains, k):
    assert dcg(ranking, gains, k) <= ideal_dcg(gains, k) + 1e-9


@given(rankings, relevant_sets)
def test_eleven_point_curve_nonincreasing(ranking, relevant):
    curve = eleven_point_precision(ranking, relevant)
    assert len(curve) == 11
    assert all(curve[i] >= curve[i + 1] - 1e-12 for i in range(10))


@given(st.floats(0, 1), st.floats(0, 1))
def test_f1_between_min_and_max(p, r):
    f1 = f1_score(p, r)
    assert 0.0 <= f1 <= 1.0
    assert f1 <= max(p, r) + 1e-12
    if p > 0 and r > 0:
        assert f1 >= min(p, r) * 2 * max(p, r) / (min(p, r) + max(p, r)) - 1e-9


# -- scoring --------------------------------------------------------------------


@given(st.integers(0, 2), st.integers(0, 2))
def test_distance_weight_monotone_decreasing(d1, d2):
    if d1 <= d2 <= 2:
        assert distance_weight(d1, 2) >= distance_weight(d2, 2)


@given(
    st.integers(0, 2),
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
    ).map(lambda t: (min(t), max(t))),
)
def test_distance_weight_within_interval(distance, interval):
    low, high = interval
    weight = distance_weight(distance, 2, (low, high))
    assert low - 1e-12 <= weight <= high + 1e-12


@given(
    st.one_of(st.none(), st.integers(1, 1000), st.floats(0.01, 1.0)),
    st.integers(0, 10000),
)
def test_window_size_bounded(window, total):
    size = window_size(window, total)
    assert 0 <= size <= total or (size == 1 and total == 0)
    if isinstance(window, int):
        assert size <= window


# -- index statistics ----------------------------------------------------------------


@settings(max_examples=40)
@given(
    st.lists(
        st.dictionaries(
            st.text(alphabet="abcde", min_size=1, max_size=3),
            st.integers(min_value=1, max_value=5),
            max_size=6,
        ),
        min_size=1,
        max_size=12,
    )
)
def test_irf_monotone_in_rarity(documents):
    """Terms in fewer documents never get a lower irf."""
    terms = InvertedIndex()
    entities = EntityIndex()
    for i, counts in enumerate(documents):
        terms.add_document(f"d{i}", counts)
        entities.add_document(f"d{i}", {})
    stats = CollectionStatistics(terms, entities)
    vocabulary = terms.terms()
    for a in vocabulary:
        for b in vocabulary:
            if terms.document_frequency(a) <= terms.document_frequency(b):
                assert stats.irf(a) >= stats.irf(b) - 1e-12


@settings(max_examples=40)
@given(
    st.lists(
        st.dictionaries(
            st.text(alphabet="abcde", min_size=1, max_size=3),
            st.integers(min_value=1, max_value=5),
            max_size=6,
        ),
        min_size=1,
        max_size=12,
    )
)
def test_irf_positive_for_indexed_terms(documents):
    terms = InvertedIndex()
    entities = EntityIndex()
    for i, counts in enumerate(documents):
        terms.add_document(f"d{i}", counts)
        entities.add_document(f"d{i}", {})
    stats = CollectionStatistics(terms, entities)
    for term in terms.terms():
        value = stats.irf(term)
        assert value > 0.0
        assert math.isfinite(value)
