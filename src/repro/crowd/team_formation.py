"""Expert Team Formation (Lappas, Liu & Terzi, KDD 2009 — paper ref [15]).

Given a task requiring a set of skills and a pool of candidates — each
holding some skills — find a team that *covers* every required skill
while minimizing the *communication cost* over the social graph:

* **diameter cost** — the longest shortest-path distance between any
  two team members (Lappas' ``RarestFirst`` approximates the optimum
  within a factor of 2);
* **MST cost** — the weight of a minimum spanning tree over the team's
  pairwise graph distances (Lappas' ``EnhancedSteiner`` heuristic; we
  implement the classic greedy cover + Steiner-tree refinement).

Skills here are expertise domains, and a candidate "holds" a skill when
the expert finder ranks them for it — so the module composes directly
with :class:`repro.core.ExpertFinder` output.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


class SkillCoverageError(ValueError):
    """No candidate holds one of the required skills."""


@dataclass(frozen=True)
class Team:
    """A formed team with its communication costs."""

    members: frozenset[str]
    required_skills: frozenset[str]
    diameter_cost: float
    mst_cost: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a team needs at least one member")


class TeamFormation:
    """Form teams over a candidate pool and a social graph.

    *skills* maps each candidate to the skills they hold; *graph* is an
    undirected communication graph over candidates (edges = social
    bonds; unconnected pairs communicate at a large finite penalty, as
    in Lappas' evaluation).
    """

    #: distance charged for pairs with no connecting path
    DISCONNECTED_PENALTY = 10.0

    def __init__(
        self,
        skills: Mapping[str, Set[str]],
        graph: nx.Graph,
    ):
        if not skills:
            raise ValueError("candidate skill map must be non-empty")
        self._skills = {cid: frozenset(s) for cid, s in skills.items()}
        self._graph = graph
        self._distance_cache: dict[str, dict[str, float]] = {}

    # -- distances -------------------------------------------------------------

    def distance(self, a: str, b: str) -> float:
        """Shortest-path distance between two candidates (hop count),
        with the disconnected penalty when no path exists."""
        if a == b:
            return 0.0
        lengths = self._distance_cache.get(a)
        if lengths is None:
            # networkx loads on first use, off the gateway's start-up path
            import networkx as nx

            if a in self._graph:
                lengths = dict(nx.single_source_shortest_path_length(self._graph, a))
            else:
                lengths = {}
            self._distance_cache[a] = lengths
        return float(lengths.get(b, self.DISCONNECTED_PENALTY))

    def _diameter(self, members: Set[str]) -> float:
        members = list(members)
        worst = 0.0
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                worst = max(worst, self.distance(a, b))
        return worst

    def _mst_cost(self, members: Set[str]) -> float:
        members = list(members)
        if len(members) <= 1:
            return 0.0
        import networkx as nx

        complete = nx.Graph()
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                complete.add_edge(a, b, weight=self.distance(a, b))
        tree = nx.minimum_spanning_tree(complete)
        return float(sum(d["weight"] for _, _, d in tree.edges(data=True)))

    def _team(self, members: Set[str], required: frozenset[str]) -> Team:
        return Team(
            members=frozenset(members),
            required_skills=required,
            diameter_cost=self._diameter(members),
            mst_cost=self._mst_cost(members),
        )

    def _holders(self, skill: str) -> list[str]:
        holders = [cid for cid, skills in self._skills.items() if skill in skills]
        if not holders:
            raise SkillCoverageError(f"no candidate holds skill {skill!r}")
        return holders

    # -- algorithms -------------------------------------------------------------------

    def rarest_first(self, required_skills: Sequence[str]) -> Team:
        """Lappas' ``RarestFirst``: anchor on the rarest skill, then for
        every other skill pick the holder closest to the anchor.
        2-approximation for the diameter cost."""
        required = frozenset(required_skills)
        if not required:
            raise ValueError("required_skills must be non-empty")
        holders = {skill: self._holders(skill) for skill in required}
        rarest = min(sorted(required), key=lambda s: len(holders[s]))

        best_team: set[str] | None = None
        best_cost = float("inf")
        for anchor in holders[rarest]:
            team = {anchor}
            for skill in sorted(required - {rarest}):
                closest = min(
                    holders[skill], key=lambda c: (self.distance(anchor, c), c)
                )
                team.add(closest)
            cost = self._diameter(team)
            if cost < best_cost:
                best_team, best_cost = team, cost
        assert best_team is not None
        return self._team(best_team, required)

    def greedy_cover(self, required_skills: Sequence[str]) -> Team:
        """Steiner-flavoured greedy: grow the team by always adding the
        candidate that covers the most missing skills, breaking ties by
        the smallest distance increase to the current team (minimizes
        the MST-style cost in practice)."""
        required = frozenset(required_skills)
        if not required:
            raise ValueError("required_skills must be non-empty")
        for skill in required:
            self._holders(skill)  # raises early if uncoverable

        team: set[str] = set()
        missing = set(required)
        while missing:
            def gain(candidate: str) -> tuple[int, float, str]:
                covered = len(self._skills.get(candidate, frozenset()) & missing)
                if team:
                    added_cost = min(self.distance(candidate, m) for m in team)
                else:
                    added_cost = 0.0
                # maximize coverage, minimize cost; the name breaks ties
                return (-covered, added_cost, candidate)

            best = min(
                (c for c in sorted(self._skills) if self._skills[c] & missing),
                key=gain,
            )
            team.add(best)
            missing -= self._skills[best]
        return self._team(team, required)
