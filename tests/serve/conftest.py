"""Fixtures for the serving-gateway tests.

Two finder shapes back the suite:

* a tiny hand-built graph (three people, six resources) for endpoint
  behaviour tests — rebuilds in milliseconds, so reload tests can
  construct fresh generations freely;
* deterministic synthetic streams (six candidates, sixty resources) for
  the layout equivalence matrix, where byte-identical scores
  against an in-process twin finder are the whole point.
"""

from __future__ import annotations

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.service import ExpertSearchService
from repro.serve import GatewayConfig, GatewayHarness
from repro.serve.reload import build_service
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import (
    Platform,
    RelationKind,
    Resource,
    UserProfile,
)

HAND_TEXTS = {
    "alice": [
        "freestyle swimming training at the pool",
        "swimming competition victory",
    ],
    "bob": ["guitar chords and a new rock song", "music festival lineup"],
    "carol": [
        "swimming pool maintenance",
        "freestyle stroke technique tips",
    ],
}


def build_hand_graph() -> SocialGraph:
    graph = SocialGraph(Platform.TWITTER)
    for pid, texts in HAND_TEXTS.items():
        graph.add_profile(
            UserProfile(profile_id=pid, platform=Platform.TWITTER, display_name=pid)
        )
        for i, text in enumerate(texts):
            rid = f"{pid}-r{i}"
            graph.add_resource(
                Resource(
                    resource_id=rid,
                    platform=Platform.TWITTER,
                    text=text,
                    language="en",
                )
            )
            graph.link_resource(pid, rid, RelationKind.CREATES)
    return graph


@pytest.fixture
def hand_source(analyzer):
    """A source callable producing a fresh service per generation."""

    def source() -> ExpertSearchService:
        finder = ExpertFinder.build(
            build_hand_graph(),
            tuple(HAND_TEXTS),
            analyzer,
            FinderConfig(window=None),
        )
        return build_service(finder)

    return source


@pytest.fixture
def gateway(hand_source):
    """A running unlimited gateway over the hand-built graph."""
    harness = GatewayHarness(
        hand_source, config=GatewayConfig(rate_limit=None)
    )
    with harness:
        yield harness


@pytest.fixture(scope="session")
def stream_parts(analyzer):
    """Candidates/resources/queries for the equivalence matrix."""
    from repro.synthetic.stream import (
        stream_candidates,
        stream_queries,
        stream_resources,
    )

    candidates = stream_candidates(6)
    resources = list(stream_resources(candidates, 60, seed=31))
    queries = list(stream_queries(6, seed=31))
    return candidates, resources, queries


@pytest.fixture(scope="session")
def stream_finder_factory(analyzer, stream_parts):
    """Build identical finders on demand (deterministic streams)."""
    candidates, resources, _ = stream_parts

    def build() -> ExpertFinder:
        return ExpertFinder.from_stream(
            candidates,
            iter(resources),
            analyzer,
            FinderConfig(window=None),
        )

    return build
