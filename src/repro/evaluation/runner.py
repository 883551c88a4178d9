"""Experiment runner: execute the query set under a configuration.

Every ranking goes through :meth:`ExpertFinder.find_experts`, the
Eq. 1 → window → Eq. 3 path the gateway serves. The runner owns the
expensive piece — one finder per platform and build-time config — and
reuses the dataset's shared corpus, so parameter sweeps over α and the
window only pay the per-query scoring cost.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.config import PAPER_CONFIG, FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertScore
from repro.evaluation.metrics import (
    average_precision,
    dcg,
    eleven_point_precision,
    f1_score,
    mean,
    ndcg,
    reciprocal_rank,
)
from repro.socialgraph.metamodel import Platform
from repro.synthetic.dataset import EvaluationDataset


@dataclass(frozen=True)
class MetricsSummary:
    """The four headline metrics of the paper's tables."""

    map: float
    mrr: float
    ndcg: float
    ndcg_at_10: float

    def as_row(self) -> tuple[float, float, float, float]:
        return (self.map, self.mrr, self.ndcg, self.ndcg_at_10)


@dataclass(frozen=True)
class QueryOutcome:
    """Everything recorded for one query under one configuration."""

    need: ExpertiseNeed
    ranking: tuple[str, ...]
    relevant: frozenset[str]
    gains: dict[str, float] = field(repr=False)

    @property
    def ap(self) -> float:
        return average_precision(self.ranking, self.relevant)

    @property
    def rr(self) -> float:
        return reciprocal_rank(self.ranking, self.relevant)

    @property
    def ndcg(self) -> float:
        return ndcg(self.ranking, self.gains)

    @property
    def ndcg_at_10(self) -> float:
        return ndcg(self.ranking, self.gains, 10)

    def dcg_at(self, k: int) -> float:
        return dcg(self.ranking, self.gains, k)

    @property
    def retrieved_delta(self) -> int:
        """Δ of Fig. 11: retrieved experts minus expected experts."""
        return len(self.ranking) - len(self.relevant)


@dataclass
class EvaluationResult:
    """Aggregation over a query set."""

    outcomes: list[QueryOutcome]

    def summary(self) -> MetricsSummary:
        return MetricsSummary(
            map=mean([o.ap for o in self.outcomes]),
            mrr=mean([o.rr for o in self.outcomes]),
            ndcg=mean([o.ndcg for o in self.outcomes]),
            ndcg_at_10=mean([o.ndcg_at_10 for o in self.outcomes]),
        )

    def eleven_point_curve(self) -> tuple[float, ...]:
        """Average interpolated 11-point precision/recall curve."""
        curves = [eleven_point_precision(o.ranking, o.relevant) for o in self.outcomes]
        if not curves:
            return tuple(0.0 for _ in range(11))
        return tuple(mean([c[i] for c in curves]) for i in range(11))

    def dcg_curve(self, ks: Sequence[int] = (5, 10, 15, 20)) -> tuple[float, ...]:
        """Average DCG at each cut-off (the Fig. 8b / 9b series)."""
        return tuple(mean([o.dcg_at(k) for o in self.outcomes]) for k in ks)

    def by_domain(self) -> dict[str, "EvaluationResult"]:
        grouped: dict[str, list[QueryOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.need.domain, []).append(outcome)
        return {d: EvaluationResult(os) for d, os in grouped.items()}

    def expert_deltas(self) -> list[int]:
        """Per-query Δ (Fig. 11), in query order."""
        return [o.retrieved_delta for o in self.outcomes]

    def user_f1(
        self, person_ids: Sequence[str], *, top_k: int | None = 20
    ) -> dict[str, float]:
        """Fig.-10 per-candidate F1: each query is a binary prediction
        "this person is among the top-*top_k* returned experts" (None =
        anywhere in EX — near-vacuous when most candidates match
        something, hence the default cut at the paper's 20-user
        selection size)."""
        scores: dict[str, float] = {}
        for pid in person_ids:
            true_positive = false_positive = false_negative = 0
            for o in self.outcomes:
                retrieved = o.ranking if top_k is None else o.ranking[:top_k]
                predicted = pid in retrieved
                actual = pid in o.relevant
                if predicted and actual:
                    true_positive += 1
                elif predicted:
                    false_positive += 1
                elif actual:
                    false_negative += 1
            precision = (
                true_positive / (true_positive + false_positive)
                if true_positive + false_positive
                else 0.0
            )
            recall = (
                true_positive / (true_positive + false_negative)
                if true_positive + false_negative
                else 0.0
            )
            scores[pid] = f1_score(precision, recall)
        return scores


def _evaluate(
    dataset: EvaluationDataset,
    rank: Callable[[ExpertiseNeed], Sequence[ExpertScore]],
    queries: Sequence[ExpertiseNeed] | None,
) -> EvaluationResult:
    """Rank every query with *rank* and score it against *dataset*'s
    ground truth."""
    ground_truth = dataset.ground_truth
    outcomes: list[QueryOutcome] = []
    for need in queries if queries is not None else dataset.queries:
        relevant = ground_truth.experts(need.domain)
        outcomes.append(
            QueryOutcome(
                need=need,
                ranking=tuple(e.candidate_id for e in rank(need)),
                relevant=relevant,
                gains={
                    pid: float(ground_truth.likert(pid, need.domain))
                    for pid in relevant
                },
            )
        )
    return EvaluationResult(outcomes)


def evaluate_finder(
    dataset: EvaluationDataset,
    finder,
    queries: Sequence[ExpertiseNeed] | None = None,
) -> EvaluationResult:
    """Score any object exposing ``find_experts(need)`` — the paper's
    system, the Balog baselines, the profile matcher — over *dataset*'s
    queries with its ground truth."""
    return _evaluate(dataset, finder.find_experts, queries)


class ExperimentRunner:
    """Run query sets against finder configurations over one dataset."""

    def __init__(self, dataset: EvaluationDataset):
        self._dataset = dataset
        self._finders: dict[tuple[Platform | None, FinderConfig], ExpertFinder] = {}

    @property
    def dataset(self) -> EvaluationDataset:
        return self._dataset

    def finder(self, platform: Platform | None, config: FinderConfig) -> ExpertFinder:
        """The finder for (platform, config). α and the window only
        reach :meth:`run`'s ``find_experts`` calls, so configs that
        differ in them alone share one finder, built with the paper's α
        and window; every other field gets its own build."""
        key = config.with_(alpha=PAPER_CONFIG.alpha, window=PAPER_CONFIG.window)
        cached = self._finders.get((platform, key))
        if cached is None:
            cached = ExpertFinder.build(
                self._dataset.graph_for(platform),
                self._dataset.candidates_for(platform),
                self._dataset.analyzer,
                key,
                corpus=self._dataset.corpus,
            )
            self._finders[(platform, key)] = cached
        return cached

    def run(
        self,
        platform: Platform | None,
        config: FinderConfig,
        *,
        queries: Sequence[ExpertiseNeed] | None = None,
    ) -> EvaluationResult:
        """Execute *queries* (default: all 30) and collect outcomes."""
        finder = self.finder(platform, config)
        return _evaluate(
            self._dataset,
            lambda need: finder.find_experts(
                need, alpha=config.alpha, window=config.window
            ),
            queries,
        )
