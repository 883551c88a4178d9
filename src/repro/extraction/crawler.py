"""The Resource Extraction module (paper Fig. 4, first box).

``ResourceExtractor`` walks a platform's API with each volunteer's auth
token and materializes everything Table 1 needs — the candidate's
profile, direct resources, containers and their recent contents, and the
profiles/resources of followed (and, where visible, friend) users — into
a :class:`SocialGraph`. Privacy denials are skipped, rate-limit errors
are retried after a simulated window reset.

``CorpusAnalyzer`` then runs the full analysis flow of Fig. 4 over the
collected nodes: URL content enrichment, language identification that
keeps the platform's annotation, text processing, and entity
annotation. It is the one place a graph node becomes analyzer input
(:meth:`CorpusAnalyzer.node_input`) and the one "corpus entry, else
analyze" loop (:meth:`CorpusAnalyzer.analyze_nodes`): the dataset's
corpus and every :class:`~repro.core.expert_finder.ExpertFinder` build,
cold or corpus-backed, run through it, so both index the same node
identically. The baselines read a finder's collection or the corpus and
analyze no node themselves.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro.extraction.api import (
    PermissionDenied,
    PlatformClient,
    RateLimitExceeded,
)
from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer
from repro.socialgraph.distance import EvidenceKind
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
    """Run the Fig.-4 analysis flow over graph nodes.

    Every graph-built corpus and finder goes through this one path: the
    dataset's corpus (:meth:`analyze_graph`) and
    :meth:`~repro.core.expert_finder.ExpertFinder.build`
    (:meth:`analyze_nodes`). The corpus — node id →
    :class:`AnalyzedResource` — is what the experiment harness shares
    across finder configurations, so stemming and entity annotation
    happen once per node, not once per configuration.
    """

    def __init__(
        self,
        analyzer: ResourceAnalyzer,
        url_content: Callable[[str], str] | None = None,
    ):
        self._analyzer = analyzer
        self._url_content = url_content

    def node_input(
        self, graph: SocialGraph, node_id: str, kind: EvidenceKind
    ) -> tuple[str, str | None]:
        """The analyzer input of one graph node: its text — a profile's
        display name and text, a resource's text, a container's name and
        text — followed by the text of its linked pages when
        *url_content* is set, and the platform's language annotation (a
        resource's ``language``; ``None`` for profiles and containers)."""
        language: str | None = None
        if kind is EvidenceKind.PROFILE:
            profile = graph.profile(node_id)
            text = f"{profile.display_name} {profile.text}".strip()
            urls = profile.urls
        elif kind is EvidenceKind.RESOURCE:
            resource = graph.resource(node_id)
            text, urls, language = resource.text, resource.urls, resource.language
        else:
            container = graph.container(node_id)
            text = f"{container.name} {container.text}".strip()
            urls = container.urls
        if self._url_content is not None:
            parts = [text, *(self._url_content(url) for url in urls)]
            text = " ".join(part for part in parts if part)
        return text, language

    def analyze_nodes(
        self,
        graph: SocialGraph,
        kinds: Mapping[str, EvidenceKind],
        corpus: Mapping[str, AnalyzedResource] | None = None,
    ) -> tuple[dict[str, AnalyzedResource], int]:
        """Analyze the nodes of *kinds* (node id → kind), in its order:
        a node's *corpus* entry when there is one, else the analysis of
        its :meth:`node_input`. Returns the analyses and the number of
        nodes analyzed here (the corpus misses)."""
        analyses: dict[str, AnalyzedResource] = {}
        misses = 0
        for node_id, kind in kinds.items():
            analyzed = corpus.get(node_id) if corpus is not None else None
            if analyzed is None:
                text, language = self.node_input(graph, node_id, kind)
                analyzed = self._analyzer.analyze(node_id, text, language=language)
                misses += 1
            analyses[node_id] = analyzed
        return analyses, misses

    def analyze_graph(self, graph: SocialGraph) -> dict[str, AnalyzedResource]:
        """Analyze every profile, resource, and container in *graph*."""
        kinds: dict[str, EvidenceKind] = {}
        for profile in graph.profiles():
            kinds[profile.profile_id] = EvidenceKind.PROFILE
        for resource in graph.resources():
            kinds[resource.resource_id] = EvidenceKind.RESOURCE
        for container in graph.containers():
            kinds[container.container_id] = EvidenceKind.CONTAINER
        return self.analyze_nodes(graph, kinds)[0]
