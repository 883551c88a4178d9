"""Stateful differential test: every fast path against the object oracle.

A Hypothesis state machine drives one collection through random
sequences of streamed observes, queries (α, window as a count, a
fraction or ``None``, ``top_k``), seals, full compactions, save→load
round trips, and scatter-pool runs over a re-saved snapshot directory.
After every step the fast paths — the ``columnar`` and
``columnar-pruned`` engines, each unsharded and at ``shards`` 1, 2 and
3 — must rank exactly (``==``) like an independent oracle: a
:class:`VectorSpaceRetriever` + :class:`ExpertRanker` over plain indexes
fed the same analyzed resources. Shrinking turns any divergence into a
minimal event sequence.

Every entity posting of this synthetic stream has ``ef`` 1 or 2, for
which the products ``(ef·ew)·we`` and ``ef·(ew·we)`` are the same
float. Hand-written events that name one entity three times are
therefore interleaved with the stream, so a change of association in an
entity product shows up as a ranking difference.
"""

from __future__ import annotations

import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.ranking import ExpertRanker
from repro.index.entity_index import EntityIndex
from repro.index.inverted import InvertedIndex
from repro.index.statistics import CollectionStatistics
from repro.index.vsm import VectorSpaceRetriever
from repro.synthetic.dataset import default_analyzer
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources

_ANALYZER = default_analyzer()
_CONFIG = FinderConfig(window=5)
_CANDIDATES = stream_candidates(4)
#: each mentions "Michael Phelps" three times (``ef = 3``, ``we < 2``)
_HAND_EVENTS = [
    (
        "hand:0",
        "Michael Phelps, Michael Phelps, Michael Phelps: the freestyle "
        "swimming legend",
        [(_CANDIDATES[0], 0)],
    ),
    (
        "hand:1",
        "Usain Bolt and Michael Phelps at the Olympics: Michael Phelps "
        "swims while Usain Bolt runs, Michael Phelps again",
        [(_CANDIDATES[1], 1), (_CANDIDATES[2], 2)],
    ),
    (
        "hand:2",
        "watching Michael Phelps train freestyle swimming; Michael Phelps "
        "dives, Michael Phelps wins gold",
        [(_CANDIDATES[3], 1)],
    ),
]
_STREAM = list(stream_resources(_CANDIDATES, 48, seed=11))
# hand:0 opens every cold build; the others arrive by build or observe
_EVENTS = [
    _HAND_EVENTS[0], *_STREAM[:10], _HAND_EVENTS[1], *_STREAM[10:30],
    _HAND_EVENTS[2], *_STREAM[30:],
]
_NEEDS = [*stream_queries(6, seed=11), "Michael Phelps freestyle swimming"]
_FAST = ("columnar", "columnar-pruned")
_INDEXABLE = frozenset({"en", "und"})
_SHARD_COUNTS = (None, 1, 2, 3)

_windows = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.sampled_from((0.1, 0.5, 1.0)),
    st.none(),
)


class _Oracle:
    """The object path over plain, never-segmented indexes."""

    def __init__(self) -> None:
        self.term_index = InvertedIndex()
        self.entity_index = EntityIndex()
        self.evidence: dict[str, list[tuple[str, int]]] = {}
        self.retriever = VectorSpaceRetriever(
            self.term_index,
            self.entity_index,
            CollectionStatistics(self.term_index, self.entity_index),
            idf_exponent=_CONFIG.idf_exponent,
        )

    def add(self, event: tuple) -> None:
        node_id, text, supporters, *rest = event
        analyzed = _ANALYZER.analyze(node_id, text, language=rest[0] if rest else None)
        self.evidence[node_id] = list(supporters)
        if analyzed.language in _INDEXABLE:
            self.retriever.add_document(analyzed)

    def rank(self, need: str, alpha: float, window, top_k):
        query = _ANALYZER.analyze("__query__", need, language="en")
        ranker = ExpertRanker(self.evidence, _CONFIG.with_(alpha=alpha, window=window))
        ranked = ranker.rank(self.retriever.retrieve(query, alpha))
        return ranked if top_k is None else ranked[:top_k]


class SinglePathMachine(RuleBasedStateMachine):
    @initialize(
        cold=st.integers(min_value=1, max_value=24),
        seal_threshold=st.integers(min_value=1, max_value=6),
    )
    def build(self, cold: int, seal_threshold: int) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.saves = 0
        self.next_event = cold
        self.oracle = _Oracle()
        for event in _EVENTS[:cold]:
            self.oracle.add(event)
        assert any(
            posting.entity_frequency >= 3
            for _uri, postings in self.oracle.entity_index.items()
            for posting in postings
        )
        #: the snapshot directory each finder was last loaded from
        self.loaded_from: dict[int | None, str] = {}
        self.finders = {
            shards: ExpertFinder.from_stream(
                _CANDIDATES,
                _EVENTS[:cold],
                _ANALYZER,
                _CONFIG,
                shards=shards,
                seal_threshold=seal_threshold,
                compaction="manual",
            )
            for shards in _SHARD_COUNTS
        }

    def teardown(self) -> None:
        for finder in getattr(self, "finders", {}).values():
            finder.close_scatter_pool()
        tmp = getattr(self, "tmp", None)
        if tmp is not None:
            tmp.cleanup()

    def _indexes(self):
        for finder in self.finders.values():
            if finder.sharded_index is None:
                yield finder.segmented_index
            else:
                yield from finder.sharded_index.iter_shards()

    def _check(self, need: str, alpha: float, window, top_k) -> None:
        expected = self.oracle.rank(need, alpha, window, top_k)
        for shards, finder in self.finders.items():
            for engine in _FAST:
                finder.engine = engine
                got = finder.find_experts(need, alpha=alpha, window=window, top_k=top_k)
                assert got == expected, (shards, engine, need, alpha, window, top_k)

    @precondition(lambda self: self.next_event < len(_EVENTS))
    @rule()
    def observe(self) -> None:
        event = _EVENTS[self.next_event]
        self.next_event += 1
        node_id, text, supporters, *rest = event
        language = rest[0] if rest else None
        indexed = {
            finder.observe(node_id, text, supporters, language=language)
            for finder in self.finders.values()
        }
        assert len(indexed) == 1
        self.oracle.add(event)

    @rule(
        need=st.sampled_from(_NEEDS),
        alpha=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
        window=_windows,
        top_k=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    )
    def query(self, need: str, alpha: float, window, top_k) -> None:
        self._check(need, alpha, window, top_k)

    @rule()
    def seal(self) -> None:
        for index in self._indexes():
            index.seal()

    @rule()
    def compact(self) -> None:
        for index in self._indexes():
            index.compact(full=True)

    @rule()
    def save_load(self) -> None:
        for shards, finder in list(self.finders.items()):
            self.saves += 1
            directory = f"{self.tmp.name}/snap-{self.saves}"
            finder.save(directory)
            self.finders[shards] = ExpertFinder.load(directory, _ANALYZER)
            self.loaded_from[shards] = directory

    @precondition(lambda self: self.loaded_from)
    @rule(
        alpha=st.sampled_from((0.0, 0.6, 1.0)),
        window=_windows,
    )
    def scatter(self, alpha: float, window) -> None:
        # re-saving into the directory a finder was loaded from prunes
        # the generation it maps; the forked pool must not care
        expected = [self.oracle.rank(need, alpha, window, None) for need in _NEEDS]
        for shards, finder in self.finders.items():
            if shards is None:
                continue
            finder.save(self.loaded_from[shards])
            finder.start_scatter_pool()
            try:
                for engine in _FAST:
                    finder.engine = engine
                    got = finder.find_experts_many(_NEEDS, alpha=alpha, window=window)
                    assert got == expected, (shards, engine, alpha, window)
            finally:
                finder.close_scatter_pool()

    @invariant()
    def agrees_with_oracle(self) -> None:
        if hasattr(self, "finders"):
            self._check(_NEEDS[self.next_event % len(_NEEDS)], 0.6, 5, None)


SinglePathMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
TestSinglePath = SinglePathMachine.TestCase
