"""Unit tests for the segmented incremental index (sealed segments,
write buffer, tiered compaction).

These are index-level tests over hand-built :class:`AnalyzedResource`
objects — no analyzer or dataset needed. Rankings are compared with the
object oracle (``VectorSpaceRetriever`` + ``ExpertRanker`` over one
plain index of the whole stream); the end-to-end streaming equivalence
against cold rebuilds lives in ``tests/core/test_streaming.py``."""

import math

import pytest

from repro.core.config import FinderConfig
from repro.index.analyzer import AnalyzedResource
from repro.index.segments import SegmentedIndex
from tests.oracle import evidence_rows, merged_slice
from tests.reference.entity_index import EntityIndex
from tests.reference.inverted import InvertedIndex
from tests.reference.ranking import ExpertRanker
from tests.reference.statistics import CollectionStatistics
from tests.reference.vsm import VectorSpaceRetriever


def _res(doc_id, terms, entities=None, language="en"):
    return AnalyzedResource(
        doc_id=doc_id,
        language=language,
        term_counts=dict(terms),
        entity_counts=dict(entities or {}),
    )


# a small deterministic stream: (resource, supporters) in admission order
_STREAM = [
    (_res("d1", {"swim": 2, "pool": 1}, {"ent:pool": (1, 0.8)}), (("alice", 1),)),
    (_res("d2", {"swim": 1, "race": 1}), (("bob", 1),)),
    (_res("d3", {"guitar": 3}, {"ent:band": (2, 0.5)}), (("bob", 2),)),
    (_res("d4", {"pool": 2, "race": 1}), (("alice", 1), ("bob", 2))),
    (_res("d5", {"swim": 1, "guitar": 1}, {"ent:pool": (1, 0.3)}), (("alice", 2),)),
]

_QUERIES = [
    (_res("q:swim", {"swim": 1, "race": 1}), 0.6),
    (_res("q:pool", {"pool": 1}, {"ent:pool": (1, 0.9)}), 0.5),
    (_res("q:band", {"guitar": 1}, {"ent:band": (1, 0.9)}), 0.0),
    (_res("q:terms", {"swim": 1, "guitar": 1}), 1.0),
]


@pytest.fixture
def config():
    return FinderConfig(window=None)


def _streamed(config, **kwargs):
    index = SegmentedIndex(config, **kwargs)
    for analyzed, supporters in _STREAM:
        index.add(analyzed, supporters)
    return index


def _reference(config):
    """The same stream as one cold-built base segment."""
    return SegmentedIndex.from_built(
        [(analyzed, supporters, True) for analyzed, supporters in _STREAM], config
    )


def _rankings(index, window=None):
    return [
        index.find_experts(query, alpha=alpha, window=window)
        for query, alpha in _QUERIES
    ]


def _oracle(config, window=None):
    """The object path's rankings over one plain index of the stream."""
    term_index = InvertedIndex()
    entity_index = EntityIndex()
    evidence = {}
    for analyzed, supporters in _STREAM:
        term_index.add_document(analyzed.doc_id, analyzed.term_counts)
        entity_index.add_document(analyzed.doc_id, analyzed.entity_counts)
        evidence[analyzed.doc_id] = supporters
    retriever = VectorSpaceRetriever(
        term_index, entity_index, idf_exponent=config.idf_exponent
    )
    ranker = ExpertRanker(evidence, config.with_(window=window))
    return [
        ranker.rank(retriever.retrieve(query, alpha)) for query, alpha in _QUERIES
    ]


class TestSealBoundary:
    def test_below_threshold_stays_buffered(self, config):
        index = SegmentedIndex(config, seal_threshold=3, compaction="manual")
        for analyzed, supporters in _STREAM[:2]:
            index.add(analyzed, supporters)
        stats = index.stats
        assert (stats.segments, stats.buffered, stats.seals) == (0, 2, 0)

    def test_threshold_resource_seals(self, config):
        index = SegmentedIndex(config, seal_threshold=3, compaction="manual")
        for analyzed, supporters in _STREAM[:3]:
            index.add(analyzed, supporters)
        stats = index.stats
        assert (stats.segments, stats.buffered, stats.seals) == (1, 0, 1)
        assert stats.segment_docs == (3,)
        assert stats.documents == 3

    def test_evidence_only_resources_count_toward_threshold(self, config):
        # the language cut admits evidence-only resources; they occupy
        # buffer slots and must seal like indexed ones
        index = SegmentedIndex(config, seal_threshold=2, compaction="manual")
        index.add(_res("it1", {}, language="it"), (("alice", 1),), index=False)
        index.add(_res("it2", {}, language="it"), (("bob", 1),), index=False)
        stats = index.stats
        assert (stats.segments, stats.buffered) == (1, 0)
        assert stats.documents == 0  # nothing indexed
        assert stats.resources == 2

    def test_manual_seal_of_empty_buffer_is_noop(self, config):
        index = SegmentedIndex(config, compaction="manual")
        assert index.seal() is None
        assert index.stats.seals == 0

    def test_manual_seal_flushes_buffer(self, config):
        index = SegmentedIndex(config, compaction="manual")
        index.add(*_STREAM[0])
        segment = index.seal()
        assert segment is not None
        assert segment.document_count == 1
        assert index.stats.buffered == 0


class TestCompaction:
    def test_tiered_compaction_merges_same_tier_run(self, config):
        # threshold 1: every add seals → four tier-0 singleton segments
        index = _streamed(
            config, seal_threshold=1, compaction="manual", fanout=2
        )
        assert index.stats.segments == len(_STREAM)
        before = _rankings(index)
        assert before == _oracle(config)
        merges = index.compact()
        assert merges >= 1
        stats = index.stats
        assert stats.segments < len(_STREAM)
        assert stats.compactions == merges
        assert _rankings(index) == before

    def test_merged_evidence_preserves_stream_order(self, config):
        index = _streamed(
            config, seal_threshold=1, compaction="manual", fanout=2
        )
        index.compact(full=True)
        (segment,) = index.iter_segments()
        evidence = dict(evidence_rows(segment.evidence_csr))
        assert list(evidence) == [a.doc_id for a, _ in _STREAM]
        assert evidence["d4"] == (("alice", 1), ("bob", 2))

    def test_full_compact_sweeps_buffer_into_one_segment(self, config):
        index = _streamed(config, seal_threshold=2, compaction="manual")
        assert index.stats.segments > 1 or index.stats.buffered > 0
        before = _rankings(index)
        assert before == _oracle(config)
        assert index.compact(full=True) == 1
        stats = index.stats
        assert (stats.segments, stats.buffered) == (1, 0)
        assert stats.documents == len(_STREAM)
        assert _rankings(index) == before

    def test_full_compact_of_single_segment_is_noop(self, config):
        index = _reference(config)
        assert index.compact(full=True) == 0
        assert index.stats.compactions == 0

    def test_synchronous_mode_compacts_on_seal(self, config):
        index = _streamed(config, seal_threshold=1, fanout=2)
        # each seal triggered an inline pass; no fanout-sized run of
        # same-tier segments may survive
        assert index.stats.compactions >= 1
        assert index._plan(index.iter_segments()) is None

    def test_streaming_continues_after_compaction(self, config):
        index = _streamed(config, seal_threshold=1, compaction="manual", fanout=2)
        index.compact(full=True)
        index.add(_res("d6", {"swim": 4}), (("bob", 1),))
        ranked = index.find_experts(
            _res("q", {"swim": 1}), alpha=1.0, window=None
        )
        assert "bob" in {e.candidate_id for e in ranked}


class TestSegmentationInvariance:
    """Rankings must not depend on how the collection is segmented."""

    @pytest.mark.parametrize("seal_threshold", [1, 2, 3, len(_STREAM) + 1])
    def test_rankings_byte_identical_to_base_segment(self, config, seal_threshold):
        reference = _oracle(config)
        assert _rankings(_reference(config)) == reference
        streamed = _streamed(
            config, seal_threshold=seal_threshold, compaction="manual"
        )
        assert _rankings(streamed) == reference
        streamed.compact()
        assert _rankings(streamed) == reference
        streamed.compact(full=True)
        assert _rankings(streamed) == reference

    def test_retrieval_matches_across_segmentations(self, config):
        # the object path retrieves over merged_slice(): the merged
        # collection must not depend on how it was segmented
        def retriever(index):
            term_index, entity_index, _evidence = merged_slice(index)
            return VectorSpaceRetriever(term_index, entity_index)

        reference = retriever(_reference(config))
        streamed = retriever(_streamed(config, seal_threshold=2, compaction="manual"))
        for query, alpha in _QUERIES:
            assert streamed.retrieve(query, alpha) == reference.retrieve(query, alpha)

    def test_window_cut_is_global(self, config):
        # window=2 must pick the globally best two resources even when
        # they live in different segments
        streamed = _streamed(config, seal_threshold=1, compaction="manual")
        assert [
            streamed.find_experts(query, alpha=alpha, window=2)
            for query, alpha in _QUERIES
        ] == _oracle(config, window=2)


class TestUnionStatistics:
    def test_irf_matches_monolithic_statistics(self, config):
        streamed = _streamed(config, seal_threshold=2, compaction="manual")
        term_index = InvertedIndex()
        entity_index = EntityIndex()
        for analyzed, _ in _STREAM:
            term_index.add_document(analyzed.doc_id, analyzed.term_counts)
            entity_index.add_document(analyzed.doc_id, analyzed.entity_counts)
        mono = CollectionStatistics(term_index, entity_index)
        for term in ("swim", "pool", "race", "guitar", "ghost"):
            assert streamed.irf(term) == mono.irf(term)
        for uri in ("ent:pool", "ent:band", "ent:ghost"):
            assert streamed.eirf(uri) == mono.eirf(uri)

    def test_irf_formula(self, config):
        streamed = _streamed(config, seal_threshold=2, compaction="manual")
        # "swim" appears in d1, d2, d5 of 5 indexed docs
        assert streamed.irf("swim") == math.log(1.0 + 5 / 3)
        assert streamed.irf("ghost") == 0.0

    def test_stale_irf_is_impossible_after_add(self, config):
        index = _streamed(config, seal_threshold=10, compaction="manual")
        stale_irf = index.irf("swim")
        stale_eirf = index.eirf("ent:pool")
        index.add(
            _res("d6", {"swim": 1}, {"ent:pool": (1, 0.9)}), (("alice", 1),)
        )
        # the very next read reflects the new ratios — no invalidate call
        assert index.irf("swim") != stale_irf
        assert index.eirf("ent:pool") != stale_eirf

    def test_evidence_only_add_does_not_shift_statistics(self, config):
        index = _streamed(config, seal_threshold=10, compaction="manual")
        before = index.irf("swim")
        index.add(_res("it1", {}, language="it"), (("alice", 1),), index=False)
        assert index.irf("swim") == before
        assert index.document_count == 5
        assert index.resource_count == 6


class TestValidation:
    def test_duplicate_resource_rejected(self, config):
        index = _streamed(config, compaction="manual")
        with pytest.raises(ValueError, match="already admitted"):
            index.add(_res("d1", {"x": 1}), (("alice", 1),))

    def test_empty_supporters_rejected(self, config):
        index = SegmentedIndex(config)
        with pytest.raises(ValueError, match="at least one"):
            index.add(_res("d1", {"x": 1}), ())

    def test_out_of_range_distance_rejected(self, config):
        index = SegmentedIndex(config)
        with pytest.raises(ValueError, match="distance 7"):
            index.add(_res("d1", {"x": 1}), (("alice", 7),))

    def test_constructor_parameter_validation(self, config):
        with pytest.raises(ValueError, match="seal_threshold"):
            SegmentedIndex(config, seal_threshold=0)
        with pytest.raises(ValueError, match="fanout"):
            SegmentedIndex(config, fanout=1)
        with pytest.raises(ValueError, match="compaction"):
            SegmentedIndex(config, compaction="bogus")
        with pytest.raises(ValueError, match="compaction"):
            SegmentedIndex(config, compaction="background")  # no thread mode

    def test_alpha_and_window_validated(self, config):
        index = _streamed(config, compaction="manual")
        query = _res("q", {"swim": 1})
        with pytest.raises(ValueError, match="alpha"):
            index.find_experts(query, alpha=1.5, window=None)
        with pytest.raises(ValueError):
            index.find_experts(query, alpha=0.5, window=-1)
        with pytest.raises(ValueError):
            index.find_experts(query, alpha=0.5, window=1.5)

    def test_restore_rejects_duplicate_doc_across_segments(self, config):
        def _segment(doc_id):
            # one resource through the write buffer, sealed at once
            index = SegmentedIndex(config, seal_threshold=1)
            index.add(_res(doc_id, {"x": 1}), (("alice", 1),))
            (segment,) = index.iter_segments()
            return segment

        with pytest.raises(ValueError, match="more than one place"):
            SegmentedIndex.restore_compiled(
                config, [_segment("dup"), _segment("dup")], None
            )
