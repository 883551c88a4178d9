"""The Resource Extraction module (paper Fig. 4, first box).

``ResourceExtractor`` walks a platform's API with each volunteer's auth
token and materializes everything Table 1 needs — the candidate's
profile, direct resources, containers and their recent contents, and the
profiles/resources of followed (and, where visible, friend) users — into
a :class:`SocialGraph`. Privacy denials are skipped, rate-limit errors
are retried after a simulated window reset.

``CorpusAnalyzer`` then runs the full analysis flow of Fig. 4 over every
collected node: URL content enrichment, language identification, text
processing, and entity annotation, producing the corpus the indexes are
built from.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from repro.extraction.api import (
    PermissionDenied,
    PlatformClient,
    RateLimitExceeded,
)
from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer
from repro.socialgraph.distance import EvidenceKind, RelatedResource
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import RelationKind, SocialRelation


class ResourceExtractor:
    """Build a social graph by crawling one platform's API."""

    #: default cross-posting markers (apps append "via <app>"); resources
    #: carrying one are skipped — the paper ignored LinkedIn updates
    #: cross-posted from Twitter because they were "already accounted for
    #: in the other social network" (Sec. 3.1)
    DEFAULT_CROSS_POST_MARKERS: tuple[str, ...] = ("via twitter", "via facebook")

    def __init__(
        self,
        *,
        max_container_resources: int = 500,
        max_profile_resources: int = 2000,
        cross_post_markers: tuple[str, ...] | None = None,
    ):
        if max_container_resources <= 0 or max_profile_resources <= 0:
            raise ValueError("resource caps must be positive")
        self._max_container_resources = max_container_resources
        self._max_profile_resources = max_profile_resources
        self._cross_post_markers = (
            self.DEFAULT_CROSS_POST_MARKERS
            if cross_post_markers is None
            else cross_post_markers
        )

    def _is_cross_post(self, text: str) -> bool:
        lowered = text.lower().rstrip()
        return any(lowered.endswith(marker) for marker in self._cross_post_markers)

    # -- resilient API calls -----------------------------------------------------

    @staticmethod
    def _call(client: PlatformClient, method: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Invoke an endpoint, retrying once after a rate-window reset."""
        try:
            return method(*args, **kwargs)
        except RateLimitExceeded:
            client.wait_for_window_reset()
            return method(*args, **kwargs)

    def _paged(
        self, client: PlatformClient, method: Callable[..., Any], *args: Any, limit: int, **kwargs: Any
    ) -> list[Any]:
        """Drain a paginated endpoint up to *limit* items."""
        items: list[Any] = []
        cursor: int | None = 0
        while cursor is not None and len(items) < limit:
            page = self._call(client, method, *args, cursor=cursor, **kwargs)
            items.extend(page.items)
            cursor = page.next_cursor
        return items[:limit]

    # -- per-node extraction ---------------------------------------------------

    def _extract_direct_resources(
        self, client: PlatformClient, graph: SocialGraph, profile_id: str
    ) -> None:
        relation_map = {
            "created": RelationKind.CREATES,
            "owned": RelationKind.OWNS,
            "annotated": RelationKind.ANNOTATES,
        }
        for relation, kind in relation_map.items():
            try:
                resources = self._paged(
                    client,
                    client.get_resources,
                    profile_id,
                    relation=relation,
                    limit=self._max_profile_resources,
                )
            except PermissionDenied:
                return
            for resource in resources:
                if self._is_cross_post(resource.text):
                    continue
                graph.add_resource(resource)
                graph.link_resource(profile_id, resource.resource_id, kind)

    def _extract_containers(
        self, client: PlatformClient, graph: SocialGraph, profile_id: str, *, with_contents: bool
    ) -> None:
        try:
            containers = self._call(client, client.get_containers, profile_id)
        except PermissionDenied:
            return
        for container in containers:
            graph.add_container(container)
            graph.relate_to_container(profile_id, container.container_id)
            if not with_contents:
                continue
            resources = self._paged(
                client,
                client.get_container_resources,
                container.container_id,
                limit=self._max_container_resources,
            )
            for resource in resources:
                graph.add_resource(resource)
                graph.put_in_container(container.container_id, resource.resource_id)

    def _extract_neighbor(
        self,
        client: PlatformClient,
        graph: SocialGraph,
        source_id: str,
        neighbor_id: str,
        kind: RelationKind,
        extracted: set[str],
    ) -> bool:
        """Pull a followed/friend profile and, if visible, its distance-2
        material. Returns False when privacy blocks the profile."""
        if neighbor_id in extracted:
            # already crawled for another volunteer; only the edge is new
            graph.add_social_relation(SocialRelation(source_id, neighbor_id, kind))
            return True
        try:
            profile = self._call(client, client.get_profile, neighbor_id)
        except PermissionDenied:
            return False
        graph.add_profile(profile)
        graph.add_social_relation(SocialRelation(source_id, neighbor_id, kind))
        extracted.add(neighbor_id)
        self._extract_direct_resources(client, graph, neighbor_id)
        self._extract_containers(client, graph, neighbor_id, with_contents=False)
        try:
            for followed2 in self._call(client, client.get_followed, neighbor_id):
                try:
                    profile2 = self._call(client, client.get_profile, followed2)
                except PermissionDenied:
                    continue
                graph.add_profile(profile2)
                graph.add_social_relation(
                    SocialRelation(neighbor_id, followed2, RelationKind.FOLLOWS)
                )
        except PermissionDenied:
            pass
        return True

    # -- entry point ---------------------------------------------------------------

    def extract(
        self, clients: Iterable[PlatformClient], graph: SocialGraph | None = None
    ) -> SocialGraph:
        """Crawl with one authenticated client per volunteer, merging all
        results into one graph for the platform."""
        clients = list(clients)
        if not clients:
            raise ValueError("at least one authenticated client is required")
        platform = clients[0].platform
        if any(c.platform is not platform for c in clients):
            raise ValueError("all clients must target the same platform")
        graph = graph if graph is not None else SocialGraph(platform)
        extracted: set[str] = set()

        for client in clients:
            subject = client.subject_id
            profile = self._call(client, client.get_profile, subject)
            graph.add_profile(profile)
            extracted.add(subject)
            self._extract_direct_resources(client, graph, subject)
            self._extract_containers(client, graph, subject, with_contents=True)
        for client in clients:
            subject = client.subject_id
            try:
                followed = self._call(client, client.get_followed, subject)
            except PermissionDenied:
                followed = ()
            for neighbor in followed:
                self._extract_neighbor(
                    client, graph, subject, neighbor, RelationKind.FOLLOWS, extracted
                )
            try:
                friends = self._call(client, client.get_friends, subject)
            except PermissionDenied:
                friends = ()
            for neighbor in friends:
                # most friends are invisible to a third-party app
                self._extract_neighbor(
                    client, graph, subject, neighbor, RelationKind.FRIENDSHIP, extracted
                )
        return graph


class CorpusAnalyzer:
    """Run the Fig.-4 analysis flow over every node of a graph.

    The result — node id → :class:`AnalyzedResource` — is the reusable
    corpus the experiment harness shares across finder configurations,
    so stemming and entity annotation happen once per node, not once per
    configuration.
    """

    def __init__(
        self,
        analyzer: ResourceAnalyzer,
        url_content: Callable[[str], str] | None = None,
    ):
        self._analyzer = analyzer
        self._url_content = url_content

    def _enrich(self, text: str, urls: tuple[str, ...]) -> str:
        if self._url_content is None:
            return text
        parts = [text]
        parts.extend(self._url_content(url) for url in urls)
        return " ".join(p for p in parts if p)

    def analyze_graph(self, graph: SocialGraph) -> dict[str, AnalyzedResource]:
        """Analyze every profile, resource, and container in *graph*."""
        corpus: dict[str, AnalyzedResource] = {}
        for profile in graph.profiles():
            text = self._enrich(
                f"{profile.display_name} {profile.text}".strip(), profile.urls
            )
            corpus[profile.profile_id] = self._analyzer.analyze(profile.profile_id, text)
        for resource in graph.resources():
            text = self._enrich(resource.text, resource.urls)
            corpus[resource.resource_id] = self._analyzer.analyze(
                resource.resource_id, text, language=resource.language
            )
        for container in graph.containers():
            text = self._enrich(f"{container.name} {container.text}".strip(), container.urls)
            corpus[container.container_id] = self._analyzer.analyze(
                container.container_id, text
            )
        return corpus

    def analyze_evidence(
        self, graph: SocialGraph, items: Iterable[RelatedResource]
    ) -> dict[str, AnalyzedResource]:
        """Analyze only the nodes referenced by *items* (cheaper when a
        single candidate's evidence is needed)."""
        corpus: dict[str, AnalyzedResource] = {}
        for item in items:
            if item.node_id in corpus:
                continue
            language: str | None = None
            if item.kind is EvidenceKind.PROFILE:
                p = graph.profile(item.node_id)
                text = self._enrich(f"{p.display_name} {p.text}".strip(), p.urls)
            elif item.kind is EvidenceKind.RESOURCE:
                r = graph.resource(item.node_id)
                text = self._enrich(r.text, r.urls)
                # honour the platform's language annotation, exactly as
                # analyze_graph does — otherwise the same node can be
                # classified differently depending on which path saw it
                language = r.language
            else:
                c = graph.container(item.node_id)
                text = self._enrich(f"{c.name} {c.text}".strip(), c.urls)
            corpus[item.node_id] = self._analyzer.analyze(
                item.node_id, text, language=language
            )
        return corpus
