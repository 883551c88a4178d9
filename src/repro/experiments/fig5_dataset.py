"""Fig. 5 — evaluation dataset distributions.

* **5a**: per social network, the number of expert candidates and the
  number of distinct resources reachable at distance 0, 1, and 2, read
  from the evidence of that network's paper-setting finder (the one the
  later tables rank with): each resource counts once, at its nearest
  distance to any candidate.
* **5b**: per domain, the number of experts, the average expertise of
  the whole population, and the average expertise of the experts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import FinderConfig
from repro.experiments.context import ExperimentContext
from repro.socialgraph.metamodel import Platform
from repro.synthetic.ground_truth import DomainStats
from repro.synthetic.vocab import DOMAIN_LABELS, DOMAINS


@dataclass(frozen=True)
class NetworkDistribution:
    """One bar group of Fig. 5a."""

    network: str
    candidates: int
    resources_by_distance: tuple[int, int, int]

    @property
    def total_resources(self) -> int:
        return sum(self.resources_by_distance)


@dataclass
class Fig5Result:
    distributions: list[NetworkDistribution]
    domain_stats: list[DomainStats]
    avg_experts_per_domain: float
    avg_expertise: float

    def render(self) -> str:
        lines = ["Fig. 5a — resources and candidates per social network"]
        lines.append(f"{'network':<10} {'cand.':>6} {'dist0':>8} {'dist1':>8} {'dist2':>8} {'total':>8}")
        for dist in self.distributions:
            d0, d1, d2 = dist.resources_by_distance
            lines.append(
                f"{dist.network:<10} {dist.candidates:>6} {d0:>8} {d1:>8} {d2:>8}"
                f" {dist.total_resources:>8}"
            )
        lines.append("")
        lines.append("Fig. 5b — experts and expertise per domain")
        lines.append(f"{'domain':<24} {'experts':>8} {'avg exp.':>9} {'avg dom. exp.':>14}")
        for stats in self.domain_stats:
            lines.append(
                f"{DOMAIN_LABELS[stats.domain]:<24} {stats.expert_count:>8}"
                f" {stats.average_expertise:>9.2f} {stats.average_domain_expertise:>14.2f}"
            )
        lines.append(
            f"overall: avg {self.avg_experts_per_domain:.1f} experts/domain,"
            f" avg expertise {self.avg_expertise:.2f}"
        )
        return "\n".join(lines)


def run(context: ExperimentContext) -> Fig5Result:
    """Compute the Fig.-5 dataset statistics."""
    dataset = context.dataset
    distributions: list[NetworkDistribution] = []
    for platform in Platform:
        finder = context.runner.finder(platform, FinderConfig())
        evidence = finder.segmented_index.evidence_csr()
        # every resource has at least one evidence row; it counts once,
        # at its nearest distance to any candidate
        nearest = np.minimum.reduceat(evidence.dist, evidence.off[:-1])
        d0, d1, d2 = np.bincount(nearest, minlength=3).tolist()
        distributions.append(
            NetworkDistribution(
                network=platform.short,
                candidates=len(dataset.candidates_for(platform)),
                resources_by_distance=(d0, d1, d2),
            )
        )
    stats = [dataset.ground_truth.domain_stats(d) for d in DOMAINS]
    overall = dataset.ground_truth.overall_stats()
    return Fig5Result(
        distributions=distributions,
        domain_stats=stats,
        avg_experts_per_domain=overall["avg_experts_per_domain"],
        avg_expertise=overall["avg_expertise"],
    )
