"""Tests for the shared experiment context."""

import pytest

from repro.experiments.context import ExperimentContext, scale_from_env, shared_context
from repro.synthetic.dataset import DatasetScale


class TestScaleFromEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_env() is DatasetScale.SMALL
        assert scale_from_env(default=DatasetScale.TINY) is DatasetScale.TINY

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert scale_from_env() is DatasetScale.TINY

    def test_case_and_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "  PAPER ")
        assert scale_from_env() is DatasetScale.PAPER

    def test_invalid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "gigantic")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            scale_from_env()


class TestContext:
    def test_create_builds_dataset(self):
        context = ExperimentContext.create(DatasetScale.TINY, seed=7)
        assert context.dataset.scale is DatasetScale.TINY
        assert context.runner.dataset is context.dataset

    def test_baseline_cached(self, tiny_context):
        first = tiny_context.baseline
        second = tiny_context.baseline
        assert first is second

    def test_baseline_curves_shapes(self, tiny_context):
        eleven, dcg = tiny_context.baseline_curves((5, 10))
        assert len(eleven) == 11
        assert len(dcg) == 2

    def test_shared_context_memoized(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        shared_context.cache_clear()
        a = shared_context("tiny", 7)
        b = shared_context("tiny", 7)
        assert a is b
        shared_context.cache_clear()


class TestSharedContextScaleResolution:
    def test_env_resolved_before_cache_lookup(self, monkeypatch):
        """A REPRO_SCALE change must not be masked by a context cached
        under the default '' key at the old scale."""
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        shared_context.cache_clear()
        try:
            first = shared_context()
            assert first.dataset.scale is DatasetScale.TINY
            # if '' were the cache key, the stale TINY context would be
            # returned and the invalid scale never noticed
            monkeypatch.setenv("REPRO_SCALE", "gigantic")
            with pytest.raises(ValueError, match="REPRO_SCALE"):
                shared_context()
        finally:
            shared_context.cache_clear()

    def test_env_and_explicit_scale_share_cache_entry(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        shared_context.cache_clear()
        try:
            assert shared_context() is shared_context("tiny")
        finally:
            shared_context.cache_clear()
