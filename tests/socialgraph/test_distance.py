"""Unit tests for the Table-1 distance gathering."""

import pytest

from repro.extraction.crawler import CorpusAnalyzer
from repro.socialgraph.distance import (
    EvidenceKind,
    RelatedResource,
    ResourceGatherer,
)
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.metamodel import (
    Platform,
    RelationKind,
    Resource,
    ResourceContainer,
    SocialRelation,
    UserProfile,
)


@pytest.fixture
def graph():
    """candidate --creates--> r_own
    candidate --annotates--> r_liked
    candidate --relatesTo--> group {contains r_group}
    candidate --follows--> star {creates r_star; relatesTo group2; follows star2}
    candidate --friend--> buddy {creates r_buddy}
    """
    g = SocialGraph(Platform.TWITTER)
    for pid in ("candidate", "star", "star2", "buddy"):
        g.add_profile(
            UserProfile(
                profile_id=pid,
                platform=Platform.TWITTER,
                display_name=pid,
                text=f"bio of {pid}",
                urls=(f"http://home/{pid}",),
            )
        )
    for rid in ("r_own", "r_liked", "r_group", "r_star", "r_buddy"):
        g.add_resource(
            Resource(resource_id=rid, platform=Platform.TWITTER, text=f"text {rid}",
                     urls=(f"http://page/{rid}",))
        )
    for cid in ("group", "group2"):
        g.add_container(
            ResourceContainer(container_id=cid, platform=Platform.TWITTER, name=cid,
                              text=f"about {cid}")
        )
    g.link_resource("candidate", "r_own", RelationKind.CREATES)
    g.link_resource("candidate", "r_liked", RelationKind.ANNOTATES)
    g.relate_to_container("candidate", "group")
    g.put_in_container("group", "r_group")
    g.add_social_relation(SocialRelation("candidate", "star", RelationKind.FOLLOWS))
    g.link_resource("star", "r_star", RelationKind.CREATES)
    g.relate_to_container("star", "group2")
    g.add_social_relation(SocialRelation("star", "star2", RelationKind.FOLLOWS))
    g.add_social_relation(SocialRelation("candidate", "buddy", RelationKind.FRIENDSHIP))
    g.link_resource("buddy", "r_buddy", RelationKind.CREATES)
    return g


def _ids_at(items, distance):
    return {i.node_id for i in items if i.distance == distance}


class TestGatherWithoutFriends:
    def test_distance_0_is_profile(self, graph):
        items = ResourceGatherer(graph).gather("candidate", 0)
        assert len(items) == 1
        assert items[0].node_id == "candidate"
        assert items[0].kind is EvidenceKind.PROFILE
        assert items[0].via == "self"

    def test_distance_1_contents(self, graph):
        items = ResourceGatherer(graph).gather("candidate", 1)
        assert _ids_at(items, 1) == {"r_own", "r_liked", "group", "star"}

    def test_distance_2_contents(self, graph):
        items = ResourceGatherer(graph).gather("candidate", 2)
        assert _ids_at(items, 2) == {"r_group", "r_star", "group2", "star2"}

    def test_friend_material_excluded_by_default(self, graph):
        items = ResourceGatherer(graph).gather("candidate", 2)
        ids = {i.node_id for i in items}
        assert "buddy" not in ids
        assert "r_buddy" not in ids

    def test_each_node_once_at_min_distance(self, graph):
        # r_own is both created and owned in other setups; here just
        # assert global uniqueness
        items = ResourceGatherer(graph).gather("candidate", 2)
        ids = [i.node_id for i in items]
        assert len(ids) == len(set(ids))

    def test_via_paths(self, graph):
        items = {i.node_id: i for i in ResourceGatherer(graph).gather("candidate", 2)}
        assert items["r_star"].via == "follows→creates"
        assert items["r_group"].via == "relatesTo→contains"
        assert items["group2"].via == "follows→relatesTo"
        assert items["star2"].via == "follows→follows"


class TestGatherWithFriends:
    def test_friend_profile_at_distance_1(self, graph):
        items = ResourceGatherer(graph, include_friends=True).gather("candidate", 1)
        assert "buddy" in _ids_at(items, 1)

    def test_friend_resources_at_distance_2(self, graph):
        items = ResourceGatherer(graph, include_friends=True).gather("candidate", 2)
        assert "r_buddy" in _ids_at(items, 2)


class TestGatherValidation:
    def test_invalid_distance(self, graph):
        with pytest.raises(ValueError):
            ResourceGatherer(graph).gather("candidate", 3)

    def test_unknown_candidate(self, graph):
        with pytest.raises(KeyError):
            ResourceGatherer(graph).gather("ghost", 1)


class TestEvidenceAccessors:
    """A gathered node's analyzer input, composed by the one
    ``CorpusAnalyzer.node_input`` every builder uses."""

    def test_profile_text(self, graph, analyzer):
        text, _ = CorpusAnalyzer(analyzer).node_input(
            graph, "star", EvidenceKind.PROFILE
        )
        assert text == "star bio of star"

    def test_resource_text(self, graph, analyzer):
        text, _ = CorpusAnalyzer(analyzer).node_input(
            graph, "r_own", EvidenceKind.RESOURCE
        )
        assert text == "text r_own"

    def test_container_text(self, graph, analyzer):
        text, _ = CorpusAnalyzer(analyzer).node_input(
            graph, "group", EvidenceKind.CONTAINER
        )
        assert "about group" in text

    def test_urls(self, graph, analyzer):
        fetched = []

        def url_content(url):
            fetched.append(url)
            return f"page {len(fetched)}"

        text, _ = CorpusAnalyzer(analyzer, url_content).node_input(
            graph, "r_own", EvidenceKind.RESOURCE
        )
        assert tuple(fetched) == ("http://page/r_own",)
        assert text == "text r_own page 1"

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError):
            RelatedResource("c", "n", EvidenceKind.RESOURCE, 5, "x")


def _reference_gather_many(graph, seeds, max_distance, *, include_friends=False):
    """The per-candidate loop gather_many replaces (the old build path)."""
    gatherer = ResourceGatherer(graph, include_friends=include_friends)
    distances, kinds = {}, {}
    for candidate_id, profile_ids in seeds.items():
        node_distance = {}
        for profile_id in profile_ids:
            for item in gatherer.gather(profile_id, max_distance):
                prev = node_distance.get(item.node_id)
                if prev is None or item.distance < prev:
                    node_distance[item.node_id] = item.distance
                if item.node_id not in kinds:
                    kinds[item.node_id] = item.kind
        distances[candidate_id] = node_distance
    return distances, kinds


class TestGatherMany:
    @pytest.mark.parametrize("max_distance", [0, 1, 2])
    @pytest.mark.parametrize("include_friends", [False, True])
    def test_equivalent_to_per_candidate_loop(self, graph, max_distance, include_friends):
        seeds = {"candidate": ("candidate",), "star": ("star",), "buddy": ("buddy",)}
        gathered = ResourceGatherer(
            graph, include_friends=include_friends
        ).gather_many(seeds, max_distance)
        ref_distances, ref_kinds = _reference_gather_many(
            graph, seeds, max_distance, include_friends=include_friends
        )
        assert gathered.distances == ref_distances
        assert gathered.kinds == ref_kinds
        # order matters too: it fixes the index insertion order downstream
        assert list(gathered.kinds) == list(ref_kinds)
        for cid in seeds:
            assert list(gathered.distances[cid]) == list(ref_distances[cid])

    def test_multi_profile_candidate_minimal_distance(self, graph):
        # star is at distance 1 from candidate's profile but distance 0
        # as its own seed profile: the merge keeps the minimum
        seeds = {"person": ("candidate", "star")}
        gathered = ResourceGatherer(graph).gather_many(seeds, 2)
        assert gathered.distances["person"]["star"] == 0
        assert gathered.distances["person"]["candidate"] == 0
        ref_distances, _ = _reference_gather_many(graph, seeds, 2)
        assert gathered.distances == ref_distances

    def test_overlapping_candidates_share_frontier(self, graph):
        # both candidates reach star's material; results stay per-candidate
        seeds = {"a": ("candidate",), "b": ("star",)}
        gathered = ResourceGatherer(graph).gather_many(seeds, 2)
        assert "r_star" in gathered.distances["a"]  # via follows→creates
        assert gathered.distances["a"]["r_star"] == 2
        assert gathered.distances["b"]["r_star"] == 1
        assert gathered.kinds["r_star"] is EvidenceKind.RESOURCE

    def test_invalid_distance(self, graph):
        with pytest.raises(ValueError):
            ResourceGatherer(graph).gather_many({"c": ("candidate",)}, 3)

    def test_empty_seeds(self, graph):
        gathered = ResourceGatherer(graph).gather_many({}, 2)
        assert gathered.distances == {}
        assert gathered.kinds == {}
