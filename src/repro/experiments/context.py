"""Shared state for the experiment drivers.

Building the dataset and the per-configuration finders dominates the
cost of the reproduction, so all drivers share one context. The scale
can be forced through the ``REPRO_SCALE`` environment variable
(``tiny`` / ``small`` / ``paper``); benchmarks default to ``small``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.evaluation.baselines import random_baseline, random_curves
from repro.evaluation.runner import ExperimentRunner, MetricsSummary
from repro.synthetic.dataset import DatasetScale, EvaluationDataset, build_dataset

#: default master seed of the reproduction
DEFAULT_SEED = 7


def scale_from_env(default: DatasetScale = DatasetScale.SMALL) -> DatasetScale:
    """The dataset scale selected by ``REPRO_SCALE``, or *default*."""
    value = os.environ.get("REPRO_SCALE", "").strip().lower()
    if not value:
        return default
    try:
        return DatasetScale(value)
    except ValueError:
        valid = ", ".join(s.value for s in DatasetScale)
        raise ValueError(f"REPRO_SCALE must be one of {valid}, got {value!r}") from None


@dataclass
class ExperimentContext:
    """Dataset + runner + cached random baseline."""

    dataset: EvaluationDataset
    runner: ExperimentRunner
    _baseline: MetricsSummary | None = field(default=None, repr=False)

    @classmethod
    def create(
        cls, scale: DatasetScale | None = None, seed: int = DEFAULT_SEED
    ) -> "ExperimentContext":
        """Build the context over a fresh dataset (scale default:
        ``REPRO_SCALE``, else SMALL)."""
        dataset = build_dataset(scale or scale_from_env(), seed)
        return cls(dataset=dataset, runner=ExperimentRunner(dataset))

    @property
    def baseline(self) -> MetricsSummary:
        """The paper's random baseline (10 runs × 20 users per query)."""
        if self._baseline is None:
            self._baseline = random_baseline(
                self.dataset.person_ids,
                self.dataset.queries,
                self.dataset.ground_truth,
                seed=self.dataset.seed,
            )
        return self._baseline

    def baseline_curves(
        self, dcg_ks: tuple[int, ...] = (5, 10, 15, 20)
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(11-point precision, DCG curve) of the random baseline."""
        return random_curves(
            self.dataset.person_ids,
            self.dataset.queries,
            self.dataset.ground_truth,
            seed=self.dataset.seed,
            dcg_ks=dcg_ks,
        )


@lru_cache(maxsize=2)
def _shared_context(scale: DatasetScale, seed: int) -> ExperimentContext:
    return ExperimentContext.create(scale, seed)


class _SharedContext:
    """Process-wide context cache; used by the benchmark suite.

    The ``REPRO_SCALE`` environment variable is resolved to a concrete
    :class:`DatasetScale` *before* the cache lookup — caching on the raw
    string (where ``""`` means "whatever the env says") would keep
    returning a context built at a stale scale after the env changes.

    A callable class rather than attributes monkey-patched onto a
    function: ``cache_clear``/``cache_info`` (which the tests and REPL
    users rely on) are real, typed methods delegating to the underlying
    ``lru_cache``.
    """

    def __call__(
        self, scale_value: str = "", seed: int = DEFAULT_SEED
    ) -> ExperimentContext:
        scale = DatasetScale(scale_value) if scale_value else scale_from_env()
        return _shared_context(scale, seed)

    def cache_clear(self) -> None:
        _shared_context.cache_clear()

    def cache_info(self) -> Any:
        return _shared_context.cache_info()


shared_context = _SharedContext()
