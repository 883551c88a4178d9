"""Wikipedia-like knowledge base: entities, anchors, and a link graph.

The real system cross-links text to Wikipedia; here the KB is built from
synthetic seed data, but it exposes the same statistics the TAGME
algorithm needs:

* **anchors** — surface forms with a probability distribution over the
  entities they may denote (*commonness*, estimated on Wikipedia from
  anchor-text counts);
* **links** — an entity-to-entity graph from which semantic
  *relatedness* is computed with the Milne–Witten measure.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType


@dataclass(frozen=True)
class Entity:
    """One catalogued real-world entity."""

    uri: str
    name: str
    entity_type: str  # e.g. Person, City, SportsTeam, Software
    domain: str  # e.g. sport, music, technology — paper's "domain"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.uri:
            raise ValueError("Entity.uri must be non-empty")


@dataclass
class _AnchorEntry:
    entity_uri: str
    count: int


class KnowledgeBase:
    """Entity catalogue + anchor dictionary + link graph."""

    def __init__(self) -> None:
        self._entities: dict[str, Entity] = {}
        self._anchors: dict[tuple[str, ...], list[_AnchorEntry]] = {}
        self._outlinks: dict[str, set[str]] = {}
        self._inlinks: dict[str, set[str]] = {}
        # first token → token length of the longest anchor it starts
        self._longest_from: dict[str, int] = {}
        self._longest_view = MappingProxyType(self._longest_from)

    # -- construction -----------------------------------------------------------

    def add_entity(self, entity: Entity) -> None:
        if entity.uri in self._entities:
            raise ValueError(f"entity {entity.uri!r} already in KB")
        self._entities[entity.uri] = entity
        self._outlinks.setdefault(entity.uri, set())
        self._inlinks.setdefault(entity.uri, set())

    def add_anchor(self, surface: str, entity_uri: str, count: int = 1) -> None:
        """Register that *surface* (a space-separated lowercase phrase) is
        used *count* times as anchor text for *entity_uri*."""
        self._require(entity_uri)
        if count <= 0:
            raise ValueError("anchor count must be positive")
        key = tuple(surface.lower().split())
        if not key:
            raise ValueError("anchor surface must be non-empty")
        entries = self._anchors.setdefault(key, [])
        for entry in entries:
            if entry.entity_uri == entity_uri:
                entry.count += count
                break
        else:
            entries.append(_AnchorEntry(entity_uri, count))
        if len(key) > self._longest_from.get(key[0], 0):
            self._longest_from[key[0]] = len(key)

    def add_link(self, source_uri: str, target_uri: str) -> None:
        """Register a (directed) page link between two entities."""
        self._require(source_uri)
        self._require(target_uri)
        if source_uri == target_uri:
            return
        self._outlinks[source_uri].add(target_uri)
        self._inlinks[target_uri].add(source_uri)

    # -- queries ----------------------------------------------------------------

    def _require(self, uri: str) -> None:
        if uri not in self._entities:
            raise KeyError(f"unknown entity {uri!r}")

    def entity(self, uri: str) -> Entity:
        self._require(uri)
        return self._entities[uri]

    def has_entity(self, uri: str) -> bool:
        return uri in self._entities

    def entities(self) -> Iterable[Entity]:
        return self._entities.values()

    def __len__(self) -> int:
        return len(self._entities)

    @property
    def max_anchor_length(self) -> int:
        """Longest anchor, in tokens (1 while there is none)."""
        return max(self._longest_from.values(), default=1)

    @property
    def longest_anchor_from(self) -> Mapping[str, int]:
        """First token → length, in tokens, of the longest anchor that
        starts with it; a live read-only view that bounds the spotter's
        n-gram scan at each position. Tokens that start no anchor are
        absent."""
        return self._longest_view

    def anchor_candidates(self, surface_tokens: tuple[str, ...]) -> list[tuple[str, float]]:
        """(entity_uri, commonness) for every entity the anchor may denote,
        sorted by decreasing commonness. Empty if the phrase is not an
        anchor."""
        entries = self._anchors.get(surface_tokens)
        if not entries:
            return []
        total = sum(e.count for e in entries)
        scored = [(e.entity_uri, e.count / total) for e in entries]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored

    def is_anchor(self, surface_tokens: tuple[str, ...]) -> bool:
        return surface_tokens in self._anchors

    def relatedness(self, uri_a: str, uri_b: str) -> float:
        """Milne–Witten semantic relatedness from shared in-links, in
        [0, 1]. Entities with no in-link overlap score 0."""
        if uri_a == uri_b:
            return 1.0
        links_a = self._inlinks.get(uri_a, set())
        links_b = self._inlinks.get(uri_b, set())
        shared = len(links_a & links_b)
        if shared == 0:
            return 0.0
        size_a, size_b = len(links_a), len(links_b)
        total = max(len(self._entities), 2)
        numerator = math.log(max(size_a, size_b)) - math.log(shared)
        denominator = math.log(total) - math.log(min(size_a, size_b))
        if denominator <= 0:
            return 1.0
        return max(0.0, 1.0 - numerator / denominator)
