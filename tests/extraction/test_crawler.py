"""Unit tests for the resource extractor (crawler) and corpus analyzer."""

import pytest

from repro.extraction.api import (
    AccountRecord,
    AuthToken,
    ContainerRecord,
    PlatformClient,
    PlatformStore,
)
from repro.extraction.crawler import CorpusAnalyzer, ResourceExtractor
from repro.extraction.privacy import PrivacyPolicy
from repro.extraction.url_content import SyntheticWeb, UrlContentExtractor, WebPage
from repro.socialgraph.distance import ResourceGatherer
from repro.socialgraph.metamodel import Platform, Resource, ResourceContainer, UserProfile
from repro.socialgraph.platforms import PlatformCapabilities


def _profile(pid, platform=Platform.FACEBOOK, text=""):
    return UserProfile(profile_id=pid, platform=platform, display_name=pid, text=text)


@pytest.fixture
def store():
    """me: 2 wall posts, 1 like on star's post, member of g1 (2 posts),
    follows star (1 post, member of g2); friend buddy (closed privacy);
    friend pal (open, 1 post)."""
    store = PlatformStore(Platform.FACEBOOK)
    me = AccountRecord(profile=_profile("me"))
    star = AccountRecord(profile=_profile("star", text="famous swimmer"))
    buddy = AccountRecord(profile=_profile("buddy"), privacy=PrivacyPolicy.closed())
    pal = AccountRecord(profile=_profile("pal"))
    for acc in (me, star, buddy, pal):
        store.add_account(acc)

    def res(rid, text="some text"):
        store.add_resource(Resource(resource_id=rid, platform=Platform.FACEBOOK,
                                    text=text, timestamp=int(rid[-1])))
        return rid

    me.created.extend([res("w1"), res("w2")])
    me.owned.extend(["w1", "w2"])
    star.created.append(res("s1"))
    star.owned.append("s1")
    me.annotated.append("s1")
    pal.created.append(res("p1"))
    g1 = ContainerRecord(container=ResourceContainer(
        container_id="g1", platform=Platform.FACEBOOK, name="group one"))
    g1.resource_ids.extend([res("c2"), res("c1")])
    g1.members.append("me")
    store.add_container(g1)
    me.containers.append("g1")
    g2 = ContainerRecord(container=ResourceContainer(
        container_id="g2", platform=Platform.FACEBOOK, name="group two"))
    store.add_container(g2)
    star.containers.append("g2")
    me.follows.append("star")
    me.friends.extend(["buddy", "pal"])
    return store


@pytest.fixture
def graph(store):
    client = PlatformClient(store, AuthToken("t", "me"))
    return ResourceExtractor().extract([client])


class TestExtraction:
    def test_subject_material(self, graph):
        assert graph.has_profile("me")
        assert {r for r, _ in graph.direct_resources("me")} == {"w1", "w2", "s1"}
        assert graph.containers_of("me") == ("g1",)
        assert set(graph.resources_in("g1")) == {"c1", "c2"}

    def test_followed_user_material(self, graph):
        assert graph.has_profile("star")
        assert graph.followed_by("me") == ("star",)
        assert {r for r, _ in graph.direct_resources("star")} == {"s1"}
        assert graph.containers_of("star") == ("g2",)

    def test_closed_friend_skipped(self, graph):
        assert not graph.has_profile("buddy")

    def test_open_friend_extracted(self, graph):
        assert graph.has_profile("pal")
        assert "pal" in graph.friends_of("me")
        assert {r for r, _ in graph.direct_resources("pal")} == {"p1"}

    def test_table1_distances(self, graph):
        items = ResourceGatherer(graph).gather("me", 2)
        at = {d: {i.node_id for i in items if i.distance == d} for d in (0, 1, 2)}
        assert at[0] == {"me"}
        assert at[1] == {"w1", "w2", "s1", "g1", "star"}
        assert at[2] == {"c1", "c2", "g2"}

    def test_rate_limit_recovery(self, store):
        caps = PlatformCapabilities(
            platform=Platform.FACEBOOK, has_containers=True,
            bidirectional_relations=True, profile_richness=0.3,
            friend_visibility=1.0, page_size=25, rate_limit=2,
        )
        client = PlatformClient(store, AuthToken("t", "me"), capabilities=caps)
        graph = ResourceExtractor().extract([client])
        assert graph.has_profile("me")
        assert client.rate_limit_hits > 0

    def test_caps_validated(self):
        with pytest.raises(ValueError):
            ResourceExtractor(max_container_resources=0)

    def test_requires_clients(self):
        with pytest.raises(ValueError):
            ResourceExtractor().extract([])

    def test_mixed_platform_clients_rejected(self, store):
        other = PlatformStore(Platform.TWITTER)
        other.add_account(AccountRecord(profile=_profile("x", Platform.TWITTER)))
        c1 = PlatformClient(store, AuthToken("a", "me"))
        c2 = PlatformClient(other, AuthToken("b", "x"))
        with pytest.raises(ValueError):
            ResourceExtractor().extract([c1, c2])

    def test_container_resource_cap(self, store):
        client = PlatformClient(store, AuthToken("t", "me"))
        graph = ResourceExtractor(max_container_resources=1).extract([client])
        assert len(graph.resources_in("g1")) == 1

    def test_shared_neighbor_not_recrawled(self, store):
        # two volunteers following the same star: star crawled once
        me2 = AccountRecord(profile=_profile("me2"))
        store.add_account(me2)
        me2.follows.append("star")
        clients = [
            PlatformClient(store, AuthToken("t1", "me")),
            PlatformClient(store, AuthToken("t2", "me2")),
        ]
        graph = ResourceExtractor().extract(clients)
        assert graph.followed_by("me2") == ("star",)
        assert graph.followed_by("me") == ("star",)


class TestCorpusAnalyzer:
    def test_analyze_graph_covers_all_nodes(self, graph, analyzer):
        corpus = CorpusAnalyzer(analyzer).analyze_graph(graph)
        for profile in graph.profiles():
            assert profile.profile_id in corpus
        for resource in graph.resources():
            assert resource.resource_id in corpus
        for container in graph.containers():
            assert container.container_id in corpus

    def test_url_enrichment(self, analyzer):
        web = SyntheticWeb()
        web.publish(WebPage(url="http://x/1", title="butterfly stroke analysis",
                            main_text="detailed breakdown of the butterfly technique"))
        from repro.socialgraph.graph import SocialGraph

        g = SocialGraph(Platform.TWITTER)
        g.add_profile(_profile("u", Platform.TWITTER))
        g.add_resource(Resource(resource_id="r", platform=Platform.TWITTER,
                                text="read this", urls=("http://x/1",)))
        from repro.socialgraph.metamodel import RelationKind

        g.link_resource("u", "r", RelationKind.CREATES)
        corpus = CorpusAnalyzer(analyzer, UrlContentExtractor(web)).analyze_graph(g)
        assert "butterfli" in corpus["r"].term_counts  # stem of butterfly

    def test_analyze_nodes_in_kinds_order(self, graph, analyzer):
        gathered = ResourceGatherer(graph).gather_many({"me": ("me",)}, 1)
        corpus, misses = CorpusAnalyzer(analyzer).analyze_nodes(graph, gathered.kinds)
        assert list(corpus) == list(gathered.kinds)
        assert misses == len(corpus)

    def test_analyze_nodes_reuses_corpus_entries(self, graph, analyzer):
        corpus_analyzer = CorpusAnalyzer(analyzer)
        full = corpus_analyzer.analyze_graph(graph)
        gathered = ResourceGatherer(graph).gather_many({"me": ("me",)}, 2)
        partial = {node_id: full[node_id] for node_id in list(gathered.kinds)[::2]}
        corpus, misses = corpus_analyzer.analyze_nodes(graph, gathered.kinds, partial)
        assert corpus == {node_id: full[node_id] for node_id in gathered.kinds}
        assert all(corpus[node_id] is hit for node_id, hit in partial.items())
        assert misses == len(gathered.kinds) - len(partial)


class TestCrossPostFiltering:
    def test_marked_resources_skipped(self, analyzer):
        store = PlatformStore(Platform.LINKEDIN)
        me = AccountRecord(profile=_profile("me", Platform.LINKEDIN))
        store.add_account(me)
        store.add_resource(Resource(
            resource_id="native", platform=Platform.LINKEDIN,
            text="shipping a new backend service today", timestamp=1))
        store.add_resource(Resource(
            resource_id="mirrored", platform=Platform.LINKEDIN,
            text="great swimming race tonight via twitter", timestamp=2))
        me.created.extend(["native", "mirrored"])
        client = PlatformClient(store, AuthToken("t", "me"))
        graph = ResourceExtractor().extract([client])
        ids = {rid for rid, _ in graph.direct_resources("me")}
        assert ids == {"native"}

    def test_marker_must_be_suffix(self, analyzer):
        store = PlatformStore(Platform.LINKEDIN)
        me = AccountRecord(profile=_profile("me", Platform.LINKEDIN))
        store.add_account(me)
        store.add_resource(Resource(
            resource_id="mention", platform=Platform.LINKEDIN,
            text="i heard via twitter that the match was great", timestamp=1))
        me.created.append("mention")
        client = PlatformClient(store, AuthToken("t", "me"))
        graph = ResourceExtractor().extract([client])
        assert {rid for rid, _ in graph.direct_resources("me")} == {"mention"}

    def test_custom_markers(self, analyzer):
        store = PlatformStore(Platform.LINKEDIN)
        me = AccountRecord(profile=_profile("me", Platform.LINKEDIN))
        store.add_account(me)
        store.add_resource(Resource(
            resource_id="r", platform=Platform.LINKEDIN,
            text="hello from my blog", timestamp=1))
        me.created.append("r")
        client = PlatformClient(store, AuthToken("t", "me"))
        graph = ResourceExtractor(cross_post_markers=("from my blog",)).extract([client])
        assert graph.direct_resources("me") == ()

    def test_generator_emits_cross_posts(self, tiny_dataset):
        """The synthetic LinkedIn store contains mirrored tweets, and the
        crawled graph contains none of them."""
        from repro.synthetic.network_builder import CROSS_POST_MARKER

        store = tiny_dataset.networks.stores[Platform.LINKEDIN]
        mirrored = [r for r in store.resources.values()
                    if r.text.endswith(CROSS_POST_MARKER)]
        assert mirrored  # generator produced some
        graph = tiny_dataset.graphs[Platform.LINKEDIN]
        crawled_texts = {r.resource_id for r in graph.resources()}
        assert not any(r.resource_id in crawled_texts for r in mirrored)


class TestAnalyzeEvidenceLanguage:
    def test_platform_language_annotation_respected(self, analyzer):
        """A resource carrying a platform language annotation must be
        classified identically by analyze_graph and by the cold builds'
        analyze_nodes over gathered evidence."""
        from repro.socialgraph.graph import SocialGraph
        from repro.socialgraph.metamodel import RelationKind

        g = SocialGraph(Platform.TWITTER)
        g.add_profile(_profile("u", Platform.TWITTER))
        # short text the language identifier alone cannot pin down;
        # the platform says it is Italian
        g.add_resource(Resource(resource_id="r_it", platform=Platform.TWITTER,
                                text="forza ragazzi", language="it"))
        g.link_resource("u", "r_it", RelationKind.CREATES)

        corpus_analyzer = CorpusAnalyzer(analyzer)
        full = corpus_analyzer.analyze_graph(g)
        gathered = ResourceGatherer(g).gather_many({"u": ("u",)}, 1)
        subset, _ = corpus_analyzer.analyze_nodes(g, gathered.kinds)
        assert subset["r_it"].language == "it"
        assert subset["r_it"] == full["r_it"]

