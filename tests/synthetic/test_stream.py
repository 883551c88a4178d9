"""Tests for the streaming ``xl`` scale generator."""

import itertools

import pytest

from repro.storage.cache import load_or_build
from repro.synthetic.dataset import DatasetScale, build_dataset
from repro.synthetic.stream import (
    XL_CANDIDATES,
    XL_RESOURCES,
    stream_candidates,
    stream_queries,
    stream_resources,
)


class TestStreamResources:
    def test_deterministic(self):
        cands = stream_candidates(6)
        first = list(stream_resources(cands, 200, seed=11))
        second = list(stream_resources(cands, 200, seed=11))
        assert first == second

    def test_seed_changes_stream(self):
        cands = stream_candidates(6)
        assert list(stream_resources(cands, 50, seed=1)) != list(
            stream_resources(cands, 50, seed=2)
        )

    def test_every_event_has_supporters(self):
        cands = stream_candidates(4)
        for event in stream_resources(cands, 300, seed=3):
            node_id, text, supporters, *rest = event
            assert supporters, f"{node_id} has no supporters"
            assert text
            for cid, distance in supporters:
                assert cid in cands
                assert 1 <= distance <= 2

    def test_non_english_share(self):
        events = list(stream_resources(stream_candidates(4), 2000, seed=5))
        tagged = [e for e in events if len(e) == 4]
        # ~4% carry an explicit non-English language tag
        assert 0.01 < len(tagged) / len(events) < 0.10
        assert {e[3] for e in tagged} <= {"it", "es", "fr", "de"}

    def test_unique_node_ids(self):
        events = list(stream_resources(stream_candidates(3), 500, seed=7))
        ids = [e[0] for e in events]
        assert len(set(ids)) == len(ids)

    def test_lazy(self):
        # an iterator, not a list: taking 5 of the full xl stream is cheap
        stream = stream_resources(stream_candidates(), seed=7)
        assert len(list(itertools.islice(stream, 5))) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="candidates"):
            list(stream_resources([], 10))
        with pytest.raises(ValueError, match="resources"):
            list(stream_resources(["a"], -1))
        with pytest.raises(ValueError, match="max_distance"):
            list(stream_resources(["a"], 1, max_distance=0))
        with pytest.raises(ValueError, match="count"):
            stream_candidates(0)

    def test_xl_defaults(self):
        assert XL_CANDIDATES == 10_000
        assert XL_RESOURCES == 1_000_000
        assert len(stream_candidates()) == XL_CANDIDATES


class TestStreamQueries:
    def test_deterministic_and_distinct_from_resources(self):
        assert stream_queries(10, seed=7) == stream_queries(10, seed=7)
        assert stream_queries(5, seed=1) != stream_queries(5, seed=2)
        assert stream_queries(0) == []
        with pytest.raises(ValueError, match="count"):
            stream_queries(-1)


class TestXlScaleGuards:
    """xl is streaming-only: every materializing entry point rejects it
    with a pointer at the stream module."""

    def test_build_dataset_rejects_xl(self):
        with pytest.raises(ValueError, match="stream"):
            build_dataset(DatasetScale.XL)

    def test_cache_rejects_xl(self, tmp_path):
        with pytest.raises(ValueError, match="stream"):
            load_or_build(tmp_path, DatasetScale.XL)

    def test_profile_rejects_xl(self):
        with pytest.raises(ValueError, match="stream"):
            DatasetScale.XL.profile

    def test_population_rejects_xl(self):
        with pytest.raises(ValueError, match="stream"):
            DatasetScale.XL.population_size

    def test_other_scales_unaffected(self):
        assert DatasetScale.TINY.population_size == 12
        assert DatasetScale("xl") is DatasetScale.XL


class TestStreamBuildsFinder:
    def test_from_stream_equivalence(self, analyzer):
        """A truncated xl stream builds a finder that ranks exactly like
        the reference path over the same events."""
        from repro.core.config import FinderConfig
        from repro.core.expert_finder import ExpertFinder
        from tests.oracle import oracle_experts

        cands = stream_candidates(5)
        finder = ExpertFinder.from_stream(
            cands, stream_resources(cands, 60, seed=9), analyzer,
            FinderConfig(window=None),
        )
        ranked = 0
        for text in stream_queries(4, seed=9):
            expected = oracle_experts(finder, text)
            assert finder.find_experts(text) == expected
            ranked += bool(expected)
        assert ranked
