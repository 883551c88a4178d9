"""Stateful differential test: the served path against the object oracle.

A Hypothesis state machine drives one collection, built with the
served synchronous tiered compaction or with manual compaction, through
random sequences of streamed observes, queries (α, window as a count, a
fraction or ``None``, ``top_k``), seals, tiered and full compactions and
save→load round trips. After every step the served path — one numpy
kernel over every segment and the write buffer — must rank exactly (``==``)
like an independent oracle: a :class:`VectorSpaceRetriever` +
:class:`ExpertRanker` over plain indexes fed the same analyzed
resources. Shrinking turns any divergence into a minimal event
sequence.

A fault step saves the finder, truncates one ``.bin`` container of the
new generation or flips the bits of one of its bytes, and loads it:
the load must raise :class:`StorageFormatError`, or the loaded finder
must rank like the oracle (the header's four pad bytes lie outside the
checksum and are read by nothing). Only ``.bin`` containers are
corrupted: the JSONL records carry no checksum, so a changed digit
there can load as another valid value.

Every entity posting of this synthetic stream has ``ef`` 1 or 2, for
which the products ``(ef·ew)·we`` and ``ef·(ew·we)`` are the same
float. Hand-written events that name one entity three times are
therefore interleaved with the stream, so a change of association in an
entity product shows up as a ranking difference.
"""

from __future__ import annotations

import pathlib
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
from repro.storage.jsonl import StorageFormatError
from repro.synthetic.dataset import default_analyzer
from repro.synthetic.stream import stream_candidates, stream_queries, stream_resources
from tests.reference.entity_index import EntityIndex
from tests.reference.inverted import InvertedIndex
from tests.reference.ranking import ExpertRanker
from tests.reference.statistics import CollectionStatistics
from tests.reference.vsm import VectorSpaceRetriever

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
_INDEXABLE = frozenset({"en", "und"})

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

    def add(self, event: tuple) -> bool:
        """Admit *event*; True when it entered the indexes."""
        node_id, text, supporters, *rest = event
        analyzed = _ANALYZER.analyze(node_id, text, language=rest[0] if rest else None)
        self.evidence[node_id] = list(supporters)
        indexed = analyzed.language in _INDEXABLE
        if indexed:
            self.retriever.add_document(analyzed)
        return indexed

    def rank(self, need: str, alpha: float, window, top_k):
        query = _ANALYZER.analyze("__query__", need, language="en")
        ranker = ExpertRanker(self.evidence, _CONFIG.with_(alpha=alpha, window=window))
        ranked = ranker.rank(self.retriever.retrieve(query, alpha))
        return ranked if top_k is None else ranked[:top_k]


class SinglePathMachine(RuleBasedStateMachine):
    @initialize(
        cold=st.integers(min_value=1, max_value=24),
        seal_threshold=st.integers(min_value=1, max_value=6),
        compaction=st.sampled_from(("synchronous", "manual")),
    )
    def build(self, cold: int, seal_threshold: int, compaction: str) -> None:
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
        self.finder = ExpertFinder.from_stream(
            _CANDIDATES,
            _EVENTS[:cold],
            _ANALYZER,
            _CONFIG,
            seal_threshold=seal_threshold,
            compaction=compaction,
        )

    def teardown(self) -> None:
        tmp = getattr(self, "tmp", None)
        if tmp is not None:
            tmp.cleanup()

    def _check(self, need: str, alpha: float, window, top_k) -> None:
        expected = self.oracle.rank(need, alpha, window, top_k)
        got = self.finder.find_experts(need, alpha=alpha, window=window, top_k=top_k)
        assert got == expected, (need, alpha, window, top_k)

    @precondition(lambda self: self.next_event < len(_EVENTS))
    @rule()
    def observe(self) -> None:
        event = _EVENTS[self.next_event]
        self.next_event += 1
        node_id, text, supporters, *rest = event
        language = rest[0] if rest else None
        indexed = self.finder.observe(node_id, text, supporters, language=language)
        assert indexed == self.oracle.add(event)

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
        self.finder.segmented_index.seal()

    @rule()
    def compact(self) -> None:
        self.finder.segmented_index.compact(full=True)

    @rule()
    def compact_tiers(self) -> None:
        self.finder.segmented_index.compact()

    @rule()
    def save_load(self) -> None:
        self.saves += 1
        directory = f"{self.tmp.name}/snap-{self.saves}"
        self.finder.save(directory)
        self.finder = ExpertFinder.load(directory, _ANALYZER)

    @rule(data=st.data())
    def load_corrupted(self, data) -> None:
        # the intact finder stays the one later steps use
        self.saves += 1
        directory = pathlib.Path(self.tmp.name, f"snap-{self.saves}")
        self.finder.save(directory)
        current = (directory / "CURRENT").read_text(encoding="utf-8").splitlines()
        containers = sorted((directory / current[1]).glob("*.bin"))
        path = data.draw(st.sampled_from(containers))
        raw = bytearray(path.read_bytes())
        at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        if data.draw(st.booleans()):
            del raw[at:]
        else:
            raw[at] ^= data.draw(st.integers(min_value=1, max_value=255))
        path.write_bytes(raw)
        try:
            loaded = ExpertFinder.load(directory, _ANALYZER)
        except StorageFormatError:
            return
        for need in _NEEDS:
            expected = self.oracle.rank(need, 0.6, 5, None)
            assert loaded.find_experts(need, alpha=0.6, window=5) == expected, need

    @invariant()
    def agrees_with_oracle(self) -> None:
        if hasattr(self, "finder"):
            self._check(_NEEDS[self.next_event % len(_NEEDS)], 0.6, 5, None)


SinglePathMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=20, deadline=None
)
TestSinglePath = SinglePathMachine.TestCase
