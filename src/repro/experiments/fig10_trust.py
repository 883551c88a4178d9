"""Fig. 10 — trustworthiness of social information.

For each candidate, the F1 of the system's per-query expert predictions
(candidate ∈ returned list vs. candidate ∈ ground-truth experts) is
related to the amount of social information the candidate exposes.
Expected shape: a positive correlation between the number of available
resources and prediction quality, a handful of users near F1 = 0 (the
flagship/private accounts), and some above 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import stats as scipy_stats

from repro.core.config import FinderConfig
from repro.evaluation.metrics import mean
from repro.experiments.context import ExperimentContext


@dataclass(frozen=True)
class UserTrust:
    """One point of the Fig.-10 plot."""

    person_id: str
    f1: float
    resources: int


@dataclass
class Fig10Result:
    users: list[UserTrust]
    #: least-squares slope of F1 on resource count
    regression_slope: float
    regression_intercept: float
    pearson_r: float

    @property
    def average_f1(self) -> float:
        return mean([u.f1 for u in self.users])

    @property
    def median_f1(self) -> float:
        ordered = sorted(u.f1 for u in self.users)
        n = len(ordered)
        middle = n // 2
        return ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2

    def count_above(self, threshold: float) -> int:
        return sum(1 for u in self.users if u.f1 > threshold)

    def count_unreliable(self, threshold: float = 0.05) -> int:
        """Users the system essentially cannot assess."""
        return sum(1 for u in self.users if u.f1 <= threshold)

    def render(self) -> str:
        lines = ["Fig. 10 — per-user F1 vs available resources"]
        lines.append(f"{'user':<12} {'F1':>6} {'#resources':>11}")
        for user in self.users:
            lines.append(f"{user.person_id:<12} {user.f1:>6.3f} {user.resources:>11}")
        lines.append(
            f"avg F1 {self.average_f1:.3f}, median {self.median_f1:.3f},"
            f" >0.70: {self.count_above(0.70)},"
            f" unreliable: {self.count_unreliable()}"
        )
        lines.append(
            f"regression: F1 ≈ {self.regression_slope:.2e}·resources"
            f" + {self.regression_intercept:.3f} (pearson r = {self.pearson_r:.3f})"
        )
        return "\n".join(lines)


def run(context: ExperimentContext) -> Fig10Result:
    """Compute per-user F1 under the final configuration (All, d = 2)."""
    config = FinderConfig()
    result = context.runner.run(None, config)
    finder = context.runner.finder(None, config)
    f1_by_user = result.user_f1(context.dataset.person_ids)
    users = [
        UserTrust(
            person_id=pid,
            f1=f1_by_user[pid],
            resources=finder.evidence_count(pid),
        )
        for pid in context.dataset.person_ids
    ]
    xs = [float(u.resources) for u in users]
    ys = [u.f1 for u in users]
    if len(set(xs)) > 1:
        regression = scipy_stats.linregress(xs, ys)
        slope, intercept, r = regression.slope, regression.intercept, regression.rvalue
    else:
        slope, intercept, r = 0.0, mean(ys), 0.0
    return Fig10Result(
        users=users,
        regression_slope=slope,
        regression_intercept=intercept,
        pearson_r=r,
    )
