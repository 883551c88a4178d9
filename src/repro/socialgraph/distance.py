"""Distance-based resource gathering (paper Table 1).

Starting from an expert-candidate profile (distance 0), the gatherer
walks the social graph and collects every text-bearing node up to
distance 2, tagging each with its distance and the relation path that
reached it. Resources, container descriptions, and profiles of followed
users all count as evidence (they all carry text about the candidate's
interests).

The ``include_friends`` switch reproduces the paper's Sec.-3.3.3
experiment: when on, bidirectional (friendship) edges are traversed like
``follows`` edges; when off — the paper's default — only unidirectional
follows cross profile boundaries, because "bidirectional relationships
typically reflect a real-world bond … which might not naturally imply
shared interests or expertise".

:meth:`~repro.core.expert_finder.ExpertFinder.build` is the one caller
of the traversal: :func:`candidate_seeds` turns its candidates into
seeds, and :meth:`ResourceGatherer.gather_many` walks them all in one
shared-frontier pass, keeping each node once per candidate at its
minimal distance. The baselines and the Fig. 5 statistics read what a
finder gathered, its evidence rows. The per-profile
:meth:`ResourceGatherer.gather`, with its relation paths, is the
reference that pass is tested against.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.socialgraph.graph import SocialGraph


class EvidenceKind(enum.Enum):
    """What sort of node an evidence item is."""

    PROFILE = "profile"
    RESOURCE = "resource"
    CONTAINER = "container"


@dataclass(frozen=True)
class RelatedResource:
    """One piece of evidence about a candidate's expertise."""

    candidate_id: str
    node_id: str
    kind: EvidenceKind
    distance: int
    #: human-readable relation path, e.g. "follows→creates"
    via: str

    def __post_init__(self) -> None:
        if not 0 <= self.distance <= 2:
            raise ValueError(f"distance must be in 0..2, got {self.distance}")


@dataclass
class GatheredEvidence:
    """Result of a shared-frontier :meth:`ResourceGatherer.gather_many` pass.

    Both dictionaries preserve first-encounter order, which is what makes
    a cold build deterministic: the global node order fixes the index
    insertion order (and the resources table of the base segment), and
    the per-candidate order fixes each node's evidence-row order.
    """

    #: candidate id → (node id → minimal distance), in encounter order
    distances: dict[str, dict[str, int]] = field(default_factory=dict)
    #: node id → node kind, in global first-encounter order over all candidates
    kinds: dict[str, EvidenceKind] = field(default_factory=dict)


class ResourceGatherer:
    """Gather evidence for candidates according to paper Table 1."""

    def __init__(self, graph: SocialGraph, *, include_friends: bool = False):
        self._graph = graph
        self._include_friends = include_friends

    def _outgoing_profiles(self, profile_id: str) -> list[tuple[str, str]]:
        """Profiles reachable through one social hop: always the followed
        users; friends too when ``include_friends`` is set."""
        out = [(pid, "follows") for pid in self._graph.followed_by(profile_id)]
        if self._include_friends:
            out.extend((pid, "friend") for pid in self._graph.friends_of(profile_id))
        return out

    def gather(self, candidate_id: str, max_distance: int = 2) -> list[RelatedResource]:
        """Return all evidence for *candidate_id* up to *max_distance*.

        Each node appears at most once, at its minimal distance; the order
        is deterministic (breadth-first in insertion order).
        """
        if not 0 <= max_distance <= 2:
            raise ValueError(f"max_distance must be in 0..2, got {max_distance}")
        graph = self._graph
        seen: set[str] = set()
        out: list[RelatedResource] = []

        def emit(node_id: str, kind: EvidenceKind, distance: int, via: str) -> None:
            if node_id not in seen:
                seen.add(node_id)
                out.append(
                    RelatedResource(
                        candidate_id=candidate_id,
                        node_id=node_id,
                        kind=kind,
                        distance=distance,
                        via=via,
                    )
                )

        # distance 0: the candidate profile itself
        emit(candidate_id, EvidenceKind.PROFILE, 0, "self")
        if max_distance == 0:
            return out

        # distance 1: direct resources, containers, followed profiles
        for rid, relation in graph.direct_resources(candidate_id):
            emit(rid, EvidenceKind.RESOURCE, 1, relation.value)
        for cid in graph.containers_of(candidate_id):
            emit(cid, EvidenceKind.CONTAINER, 1, "relatesTo")
        hop1 = self._outgoing_profiles(candidate_id)
        for pid, rel in hop1:
            emit(pid, EvidenceKind.PROFILE, 1, rel)
        if max_distance == 1:
            return out

        # distance 2: contents of related containers; resources, containers
        # and follows of the profiles reached at distance 1
        for cid in graph.containers_of(candidate_id):
            for rid in graph.resources_in(cid):
                emit(rid, EvidenceKind.RESOURCE, 2, "relatesTo→contains")
        for pid, rel in hop1:
            for rid, relation in graph.direct_resources(pid):
                emit(rid, EvidenceKind.RESOURCE, 2, f"{rel}→{relation.value}")
            for cid in graph.containers_of(pid):
                emit(cid, EvidenceKind.CONTAINER, 2, f"{rel}→relatesTo")
            for pid2, rel2 in self._outgoing_profiles(pid):
                emit(pid2, EvidenceKind.PROFILE, 2, f"{rel}→{rel2}")
        return out

    def gather_many(
        self, seeds: Mapping[str, Sequence[str]], max_distance: int = 2
    ) -> GatheredEvidence:
        """Gather evidence for many candidates in one shared-frontier pass.

        *seeds* maps each candidate id to its seed profile ids (several
        when one person holds profiles on multiple platforms). The
        traversal visits candidates and profiles in *seeds* order and
        emits nodes in exactly the order the per-candidate :meth:`gather`
        loop would, so the result is equivalent to::

            for cid, pids in seeds.items():
                for pid in pids:
                    for item in gatherer.gather(pid, max_distance):
                        # keep item at its minimal distance per candidate

        but each profile's neighborhood (direct resources, containers,
        outgoing profiles, container contents) is expanded **once** for
        the whole pass instead of once per candidate that reaches it —
        the distance-2 neighborhoods of a social graph overlap heavily,
        which is what makes the per-candidate loop quadratic in practice.
        No per-emission :class:`RelatedResource` objects are built; the
        cold build only needs distances and kinds.
        """
        if not 0 <= max_distance <= 2:
            raise ValueError(f"max_distance must be in 0..2, got {max_distance}")
        graph = self._graph
        # one expansion per profile, shared by every candidate reaching it
        expansions: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {}
        contents: dict[str, tuple[str, ...]] = {}

        def expansion(pid: str) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
            cached = expansions.get(pid)
            if cached is None:
                cached = (
                    tuple(rid for rid, _ in graph.direct_resources(pid)),
                    graph.containers_of(pid),
                    tuple(p for p, _ in self._outgoing_profiles(pid)),
                )
                expansions[pid] = cached
            return cached

        def contains(cid: str) -> tuple[str, ...]:
            cached = contents.get(cid)
            if cached is None:
                cached = graph.resources_in(cid)
                contents[cid] = cached
            return cached

        gathered = GatheredEvidence()
        kinds = gathered.kinds
        for candidate_id, profile_ids in seeds.items():
            node_distance: dict[str, int] = {}
            gathered.distances[candidate_id] = node_distance
            for profile_id in profile_ids:
                seen: set[str] = set()

                def emit(node_id: str, kind: EvidenceKind, distance: int) -> None:
                    # per-profile BFS dedup (first emission is minimal,
                    # distances are nondecreasing), then the cross-profile
                    # minimal-distance merge
                    if node_id in seen:
                        return
                    seen.add(node_id)
                    if node_id not in kinds:
                        kinds[node_id] = kind
                    prev = node_distance.get(node_id)
                    if prev is None or distance < prev:
                        node_distance[node_id] = distance

                emit(profile_id, EvidenceKind.PROFILE, 0)
                if max_distance == 0:
                    continue
                resources, containers, hop1 = expansion(profile_id)
                for rid in resources:
                    emit(rid, EvidenceKind.RESOURCE, 1)
                for cid in containers:
                    emit(cid, EvidenceKind.CONTAINER, 1)
                for pid in hop1:
                    emit(pid, EvidenceKind.PROFILE, 1)
                if max_distance == 1:
                    continue
                for cid in containers:
                    for rid in contains(cid):
                        emit(rid, EvidenceKind.RESOURCE, 2)
                for pid in hop1:
                    resources2, containers2, hop2 = expansion(pid)
                    for rid in resources2:
                        emit(rid, EvidenceKind.RESOURCE, 2)
                    for cid in containers2:
                        emit(cid, EvidenceKind.CONTAINER, 2)
                    for pid2 in hop2:
                        emit(pid2, EvidenceKind.PROFILE, 2)
        return gathered


def candidate_seeds(
    candidates: Mapping[str, Sequence[str]] | Sequence[str],
) -> dict[str, tuple[str, ...]]:
    """The :meth:`ResourceGatherer.gather_many` seeds of a builder's
    *candidates*: a sequence of profile ids makes each profile its own
    candidate, a mapping ``candidate id → profile ids`` keeps one
    person's profiles on several platforms under one candidate."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if isinstance(candidates, Mapping):
        return {cid: tuple(pids) for cid, pids in candidates.items()}
    return {pid: (pid,) for pid in candidates}
