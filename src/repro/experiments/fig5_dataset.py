"""Fig. 5 — evaluation dataset distributions.

* **5a**: per social network, the number of expert candidates and the
  number of distinct resources reachable at distance 0, 1, and 2.
* **5b**: per domain, the number of experts, the average expertise of
  the whole population, and the average expertise of the experts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.context import ExperimentContext
from repro.socialgraph.distance import ResourceGatherer
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
        candidates = dataset.candidates_for(platform)
        gathered = ResourceGatherer(dataset.graphs[platform]).gather_many(candidates, 2)
        # a node reachable at several distances counts once, at its
        # minimum (gather_many already keeps each candidate's minimum;
        # across candidates we keep the global one)
        nearest: dict[str, int] = {}
        for node_distance in gathered.distances.values():
            for node_id, distance in node_distance.items():
                nearest[node_id] = min(distance, nearest.get(node_id, distance))
        counts = [0, 0, 0]
        for distance in nearest.values():
            counts[distance] += 1
        distributions.append(
            NetworkDistribution(
                network=platform.short,
                candidates=len(candidates),
                resources_by_distance=(counts[0], counts[1], counts[2]),
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
