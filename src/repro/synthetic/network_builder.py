"""Build the three platform stores and the synthetic web.

This module encodes the structural facts about the platforms that the
paper's findings rest on (Sec. 3.1, Fig. 5a):

* **Facebook** — the most resources overall (wall posts, likes, group
  posts); entertainment-leaning topics; friendship graph dense among the
  volunteers but friends' data mostly privacy-blocked (~0.6% visible);
  profiles sparse, though hometown info is widespread (which the paper
  blames for the hard Location domain);
* **Twitter** — the most distance-1 resources (tweets); no containers;
  followed accounts are thematically focused (athletes, bands,
  companies) and play the role Facebook pages play elsewhere; mutual
  follows among volunteers are friendships;
* **LinkedIn** — few resources, 95% of them group posts; rich career
  profiles that describe work-domain expertise well.

Every quantity derives from a :class:`ScaleProfile` so tests run on a
tiny network and benchmarks on a paper-sized one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.extraction.api import AccountRecord, ContainerRecord, PlatformStore
from repro.extraction.privacy import PrivacyPolicy
from repro.extraction.url_content import SyntheticWeb
from repro.socialgraph.metamodel import Platform, Resource, ResourceContainer, UserProfile
from repro.synthetic.population import Person, WORK_DOMAINS
from repro.synthetic.text_gen import TextGenerator, _DOMAIN_ENTITIES
from repro.synthetic.vocab import DOMAINS

#: topical bias of what gets posted per platform (multiplies visible
#: interest in :meth:`TextGenerator.pick_domain`)
FACEBOOK_BIAS: dict[str, float] = {
    "movies_tv": 1.5, "music": 1.4, "sport": 1.3, "location": 1.2,
    "technology_games": 0.9, "science": 0.5, "computer_engineering": 0.45,
}
TWITTER_BIAS: dict[str, float] = {
    "computer_engineering": 1.35, "technology_games": 1.3, "science": 1.2,
    "sport": 1.2, "movies_tv": 0.9, "music": 0.9, "location": 0.75,
}
LINKEDIN_BIAS: dict[str, float] = {
    "computer_engineering": 1.6, "technology_games": 1.3, "science": 1.1,
    "sport": 0.15, "movies_tv": 0.1, "music": 0.1, "location": 0.15,
}


#: suffix appended by cross-posting apps ("posted via Twitter") that the
#: crawler uses to recognize and skip mirrored updates
CROSS_POST_MARKER = "via twitter"

@dataclass(frozen=True)
class ScaleProfile:
    """Base volumes per person/group; actual counts also scale with each
    person's heavy-tailed activity factor."""

    name: str
    fb_posts: int
    fb_annotations: int
    fb_external_friends: int
    fb_groups_per_domain: int
    fb_group_posts: int
    tw_tweets: int
    tw_annotations: int
    tw_celebrities_per_domain: int
    tw_celebrity_tweets: int
    li_posts: int
    li_groups_per_domain: int
    li_group_posts: int
    pages_per_domain: int
    #: probability a resource links a URL (paper: 70% overall)
    url_probability: float = 0.7
    #: share of volunteer-authored resources in a non-English language
    #: (paper: 330k collected → 230k English)
    non_english_rate: float = 0.28


TINY = ScaleProfile(
    name="tiny",
    fb_posts=12, fb_annotations=4, fb_external_friends=4,
    fb_groups_per_domain=1, fb_group_posts=24,
    tw_tweets=16, tw_annotations=3,
    tw_celebrities_per_domain=2, tw_celebrity_tweets=12,
    li_posts=1, li_groups_per_domain=1, li_group_posts=40,
    pages_per_domain=6,
)

SMALL = ScaleProfile(
    name="small",
    fb_posts=100, fb_annotations=25, fb_external_friends=15,
    fb_groups_per_domain=2, fb_group_posts=150,
    tw_tweets=130, tw_annotations=20,
    tw_celebrities_per_domain=4, tw_celebrity_tweets=60,
    li_posts=1, li_groups_per_domain=2, li_group_posts=200,
    pages_per_domain=25,
)

PAPER = ScaleProfile(
    name="paper",
    fb_posts=450, fb_annotations=110, fb_external_friends=80,
    fb_groups_per_domain=3, fb_group_posts=600,
    tw_tweets=600, tw_annotations=90,
    tw_celebrities_per_domain=5, tw_celebrity_tweets=250,
    li_posts=2, li_groups_per_domain=3, li_group_posts=700,
    pages_per_domain=60,
)


@dataclass
class BuiltNetworks:
    """Everything the generator produced."""

    stores: dict[Platform, PlatformStore]
    #: the linked pages; None for a loaded dataset, which keeps only
    #: the crawled graphs
    web: SyntheticWeb | None
    #: person id → platform → profile id
    profile_ids: dict[str, dict[Platform, str]]
    people: list[Person] = field(default_factory=list)


class NetworkBuilder:
    """Deterministic generator of the three platform stores."""

    def __init__(self, people: list[Person], scale: ScaleProfile, seed: int):
        if not people:
            raise ValueError("people must be non-empty")
        self._people = people
        self._scale = scale
        self._rng = random.Random(seed)
        self._text = TextGenerator(self._rng)
        self._web = SyntheticWeb()
        self._urls: dict[str | None, list[str]] = {}
        self._resource_seq = 0
        self._timestamp = 0

    # -- shared helpers -----------------------------------------------------------

    def _next_id(self, platform_code: str) -> str:
        self._resource_seq += 1
        return f"{platform_code}:res:{self._resource_seq:07d}"

    def _next_timestamp(self) -> int:
        self._timestamp += 1
        return self._timestamp

    def _url_pool(self, domain: str | None) -> list[str]:
        """Lazily publish the page pool for a domain (None = general)."""
        pool = self._urls.get(domain)
        if pool is None:
            label = domain or "general"
            pool = []
            for i in range(self._scale.pages_per_domain):
                url = f"http://web.example/{label}/{i}"
                if domain is None:
                    page_domain = self._rng.choice(DOMAINS)
                    page = self._text.web_page(url, page_domain)
                    # general pages are boilerplate-heavy chit-chat
                    page = type(page)(
                        url=url,
                        title=self._text.chitchat_sentence(length=4),
                        main_text=self._text.chitchat_sentence(length=30),
                        boilerplate=page.boilerplate,
                    )
                else:
                    page = self._text.web_page(url, domain)
                self._web.publish(page)
                pool.append(url)
            self._urls[domain] = pool
        return pool

    def _resource(
        self, platform: Platform, code: str, domain: str | None, *, force_english: bool = False
    ) -> Resource:
        """Generate one resource: text conditioned on *domain*, URL with
        the configured probability, occasionally non-English."""
        rng = self._rng
        if not force_english and rng.random() < self._scale.non_english_rate:
            _, text = self._text.non_english_text()
        else:
            text = self._text.resource_text(domain)
        urls: tuple[str, ...] = ()
        if rng.random() < self._scale.url_probability:
            urls = (rng.choice(self._url_pool(domain)),)
        return Resource(
            resource_id=self._next_id(code),
            platform=platform,
            text=text,
            urls=urls,
            timestamp=self._next_timestamp(),
        )

    def _scaled(self, base: int, person: Person) -> int:
        return max(1, round(base * person.activity))

    @staticmethod
    def _weighted_member(
        rng: random.Random, members: list[tuple[str, float]]
    ) -> str | None:
        total = sum(w for _, w in members)
        if total <= 0:
            return None
        r = rng.uniform(0.0, total)
        acc = 0.0
        for member_id, w in members:
            acc += w
            if r <= acc:
                return member_id
        return None

    # -- Facebook -----------------------------------------------------------------

    def _build_facebook(self, profile_ids: dict[str, dict[Platform, str]]) -> PlatformStore:
        rng = self._rng
        scale = self._scale
        store = PlatformStore(Platform.FACEBOOK)

        # volunteer accounts; hometown mention makes location info
        # widespread regardless of expertise (paper Sec. 3.7)
        for person in self._people:
            pid = f"fb:user:{person.person_id}"
            profile_ids[person.person_id][Platform.FACEBOOK] = pid
            text = self._text.facebook_profile_text(person)
            if rng.random() < 0.6:
                city = self._text.entity_mention("location")
                text = f"{text} lives in {city}".strip()
            store.add_account(
                AccountRecord(
                    profile=UserProfile(
                        profile_id=pid,
                        platform=Platform.FACEBOOK,
                        display_name=person.name,
                        text=text,
                        person_id=person.person_id,
                    ),
                    privacy=PrivacyPolicy.open(),
                )
            )

        # friendships among volunteers (social bond, not expertise)
        volunteer_ids = [profile_ids[p.person_id][Platform.FACEBOOK] for p in self._people]
        for i in range(len(volunteer_ids)):
            for j in range(i + 1, len(volunteer_ids)):
                if rng.random() < 0.22:
                    store.accounts[volunteer_ids[i]].friends.append(volunteer_ids[j])
                    store.accounts[volunteer_ids[j]].friends.append(volunteer_ids[i])

        # external friends, almost all privacy-blocked
        ext_seq = 0
        for person in self._people:
            pid = profile_ids[person.person_id][Platform.FACEBOOK]
            for _ in range(scale.fb_external_friends):
                ext_seq += 1
                ext_id = f"fb:user:ext:{ext_seq:05d}"
                visible = rng.random() < 0.006
                store.add_account(
                    AccountRecord(
                        profile=UserProfile(
                            profile_id=ext_id,
                            platform=Platform.FACEBOOK,
                            display_name=f"External {ext_seq}",
                            text=self._text.chitchat_sentence(length=5) if visible else "",
                        ),
                        privacy=PrivacyPolicy.open() if visible else PrivacyPolicy.closed(),
                    )
                )
                store.accounts[pid].friends.append(ext_id)
                store.accounts[ext_id].friends.append(pid)

        # wall posts (creates + owns); ~10% land on a friend's wall
        posts_by_domain: dict[str, list[str]] = {d: [] for d in DOMAINS}
        for person in self._people:
            pid = profile_ids[person.person_id][Platform.FACEBOOK]
            account = store.accounts[pid]
            for _ in range(self._scaled(scale.fb_posts, person)):
                domain = self._text.pick_domain(person, platform_bias=FACEBOOK_BIAS)
                resource = self._resource(Platform.FACEBOOK, "fb", domain)
                store.add_resource(resource)
                account.created.append(resource.resource_id)
                if domain is not None:
                    posts_by_domain[domain].append(resource.resource_id)
                friends = [f for f in account.friends if f in store.accounts and
                           store.accounts[f].privacy.resources_visible]
                if friends and rng.random() < 0.1:
                    wall_owner = rng.choice(friends)
                    store.accounts[wall_owner].owned.append(resource.resource_id)
                else:
                    account.owned.append(resource.resource_id)

        # likes (annotations), biased to the person's interests
        all_post_ids = [rid for ids in posts_by_domain.values() for rid in ids]
        for person in self._people:
            pid = profile_ids[person.person_id][Platform.FACEBOOK]
            account = store.accounts[pid]
            for _ in range(self._scaled(scale.fb_annotations, person)):
                domain = self._text.pick_domain(person, platform_bias=FACEBOOK_BIAS)
                pool = posts_by_domain.get(domain or "", ()) or all_post_ids
                if not pool:
                    continue
                rid = rng.choice(pool)
                if rid not in account.annotated and rid not in account.created:
                    account.annotated.append(rid)

        # groups and pages, one set per domain; membership follows
        # visible interest but with plenty of social noise — Facebook
        # groups are joined for social reasons too, and their content
        # drifts off topic, which is why the paper sees Facebook MAP
        # *drop* from distance 1 to distance 2
        self._build_containers(
            store,
            profile_ids,
            platform=Platform.FACEBOOK,
            code="fb",
            domains=DOMAINS,
            groups_per_domain=scale.fb_groups_per_domain,
            posts_per_group=scale.fb_group_posts,
            join_threshold=0.4,
            noise_join_probability=0.28,
            topical_rate=0.4,
        )
        return store

    # -- Twitter -----------------------------------------------------------------

    def _build_twitter(self, profile_ids: dict[str, dict[Platform, str]]) -> PlatformStore:
        rng = self._rng
        scale = self._scale
        store = PlatformStore(Platform.TWITTER)

        for person in self._people:
            pid = f"tw:user:{person.person_id}"
            profile_ids[person.person_id][Platform.TWITTER] = pid
            store.add_account(
                AccountRecord(
                    profile=UserProfile(
                        profile_id=pid,
                        platform=Platform.TWITTER,
                        display_name=person.name,
                        text=self._text.twitter_profile_text(person),
                        person_id=person.person_id,
                    ),
                    privacy=PrivacyPolicy.open(),
                )
            )

        # celebrity/organization accounts: thematically focused, the
        # Twitter equivalent of Facebook pages (paper Sec. 2.2)
        celebrities_by_domain: dict[str, list[str]] = {d: [] for d in DOMAINS}
        for domain in DOMAINS:
            seeds = list(_DOMAIN_ENTITIES[domain])
            rng.shuffle(seeds)
            for k in range(min(scale.tw_celebrities_per_domain, len(seeds))):
                seed = seeds[k]
                cid = f"tw:user:celebrity:{domain}:{k}"
                account = AccountRecord(
                    profile=UserProfile(
                        profile_id=cid,
                        platform=Platform.TWITTER,
                        display_name=seed.name,
                        text=self._text.celebrity_profile_text(seed),
                    ),
                    privacy=PrivacyPolicy.open(),
                )
                store.add_account(account)
                celebrities_by_domain[domain].append(cid)
                for _ in range(scale.tw_celebrity_tweets):
                    topical = rng.random() < 0.9
                    resource = self._resource(
                        Platform.TWITTER, "tw", domain if topical else None,
                        force_english=True,
                    )
                    store.add_resource(resource)
                    account.created.append(resource.resource_id)
                    account.owned.append(resource.resource_id)

        # follows: everyone may follow a domain's most famous account out
        # of casual interest, but the deeper, specialized accounts attract
        # the genuinely knowledgeable — which is what makes Twitter's
        # distance-2 evidence so discriminative (paper Sec. 3.5)
        for person in self._people:
            pid = profile_ids[person.person_id][Platform.TWITTER]
            account = store.accounts[pid]
            for domain in DOMAINS:
                for rank, cid in enumerate(celebrities_by_domain[domain]):
                    if rank == 0:
                        probability = person.visible_interest(domain) * 0.9
                    else:
                        # deep, specialized accounts: squared signal makes
                        # the follow decision sharply expertise-selective
                        probability = person.expertise_signal(domain) ** 2 * 1.1
                    if rng.random() < probability:
                        account.follows.append(cid)
            all_celebrities = [c for cs in celebrities_by_domain.values() for c in cs]
            for _ in range(rng.randint(0, 2)):
                noise = rng.choice(all_celebrities)
                if noise not in account.follows:
                    account.follows.append(noise)

        # mutual follows among volunteers = friendships (promoted by the
        # graph layer when both directions are seen)
        volunteer_ids = [profile_ids[p.person_id][Platform.TWITTER] for p in self._people]
        for i in range(len(volunteer_ids)):
            for j in range(i + 1, len(volunteer_ids)):
                if rng.random() < 0.18:
                    store.accounts[volunteer_ids[i]].friends.append(volunteer_ids[j])
                    store.accounts[volunteer_ids[j]].friends.append(volunteer_ids[i])

        # tweets and favorites
        tweets_by_domain: dict[str, list[str]] = {d: [] for d in DOMAINS}
        for person in self._people:
            pid = profile_ids[person.person_id][Platform.TWITTER]
            account = store.accounts[pid]
            for _ in range(self._scaled(scale.tw_tweets, person)):
                domain = self._text.pick_domain(person, platform_bias=TWITTER_BIAS)
                resource = self._resource(Platform.TWITTER, "tw", domain)
                store.add_resource(resource)
                account.created.append(resource.resource_id)
                account.owned.append(resource.resource_id)
                if domain is not None:
                    tweets_by_domain[domain].append(resource.resource_id)
        all_tweets = [rid for ids in tweets_by_domain.values() for rid in ids]
        for person in self._people:
            pid = profile_ids[person.person_id][Platform.TWITTER]
            account = store.accounts[pid]
            for _ in range(self._scaled(scale.tw_annotations, person)):
                domain = self._text.pick_domain(person, platform_bias=TWITTER_BIAS)
                pool = tweets_by_domain.get(domain or "", ()) or all_tweets
                if not pool:
                    continue
                rid = rng.choice(pool)
                if rid not in account.annotated and rid not in account.created:
                    account.annotated.append(rid)
        return store

    # -- LinkedIn ------------------------------------------------------------------

    def _build_linkedin(
        self,
        profile_ids: dict[str, dict[Platform, str]],
        twitter_store: PlatformStore,
    ) -> PlatformStore:
        rng = self._rng
        scale = self._scale
        store = PlatformStore(Platform.LINKEDIN)

        for person in self._people:
            pid = f"li:user:{person.person_id}"
            profile_ids[person.person_id][Platform.LINKEDIN] = pid
            store.add_account(
                AccountRecord(
                    profile=UserProfile(
                        profile_id=pid,
                        platform=Platform.LINKEDIN,
                        display_name=person.name,
                        text=self._text.linkedin_profile_text(person),
                        person_id=person.person_id,
                    ),
                    privacy=PrivacyPolicy.open(),
                )
            )

        volunteer_ids = [profile_ids[p.person_id][Platform.LINKEDIN] for p in self._people]
        for i in range(len(volunteer_ids)):
            for j in range(i + 1, len(volunteer_ids)):
                if rng.random() < 0.15:
                    store.accounts[volunteer_ids[i]].friends.append(volunteer_ids[j])
                    store.accounts[volunteer_ids[j]].friends.append(volunteer_ids[i])

        # a few status updates; the platform gives "less incentives ...
        # for general-purpose interaction" (paper Sec. 3.1). Some members
        # cross-post their tweets instead — the paper ignored those
        # updates "because they were already accounted for in the other
        # social network"; the crawler filters them by their app marker.
        for person in self._people:
            pid = profile_ids[person.person_id][Platform.LINKEDIN]
            account = store.accounts[pid]
            for _ in range(max(0, round(scale.li_posts * min(person.activity, 2.0)))):
                domain = self._text.pick_domain(person, platform_bias=LINKEDIN_BIAS)
                resource = self._resource(Platform.LINKEDIN, "li", domain, force_english=True)
                store.add_resource(resource)
                account.created.append(resource.resource_id)
                account.owned.append(resource.resource_id)
            if rng.random() < 0.3:
                tweets = twitter_store.accounts[
                    profile_ids[person.person_id][Platform.TWITTER]
                ].created
                for rid in rng.sample(tweets, k=min(len(tweets), rng.randint(1, 3))):
                    mirrored = Resource(
                        resource_id=self._next_id("li"),
                        platform=Platform.LINKEDIN,
                        text=f"{twitter_store.resources[rid].text} {CROSS_POST_MARKER}",
                        urls=twitter_store.resources[rid].urls,
                        timestamp=self._next_timestamp(),
                    )
                    store.add_resource(mirrored)
                    account.created.append(mirrored.resource_id)
                    account.owned.append(mirrored.resource_id)

        # professional groups carry 95% of the LinkedIn resources
        self._build_containers(
            store,
            profile_ids,
            platform=Platform.LINKEDIN,
            code="li",
            domains=WORK_DOMAINS,
            groups_per_domain=scale.li_groups_per_domain,
            posts_per_group=scale.li_group_posts,
            join_threshold=0.4,
            noise_join_probability=0.05,
            topical_rate=0.85,
        )
        return store

    # -- containers (shared by Facebook and LinkedIn) --------------------------------

    def _build_containers(
        self,
        store: PlatformStore,
        profile_ids: dict[str, dict[Platform, str]],
        *,
        platform: Platform,
        code: str,
        domains: tuple[str, ...],
        groups_per_domain: int,
        posts_per_group: int,
        join_threshold: float,
        noise_join_probability: float,
        topical_rate: float,
    ) -> None:
        rng = self._rng
        for domain in domains:
            for g in range(groups_per_domain):
                cid = f"{code}:group:{domain}:{g}"
                name = f"{domain.replace('_', ' ')} community {g}"
                record = ContainerRecord(
                    container=ResourceContainer(
                        container_id=cid,
                        platform=platform,
                        name=name,
                        text=self._text.container_description(domain, name),
                    )
                )
                store.add_container(record)
                members: list[tuple[str, float]] = []
                for person in self._people:
                    pid = profile_ids[person.person_id][platform]
                    interest = person.visible_interest(domain)
                    joins = interest > join_threshold and rng.random() < interest
                    if not joins and rng.random() < noise_join_probability:
                        joins = True  # social noise: invited by a friend
                    if joins:
                        record.members.append(pid)
                        store.accounts[pid].containers.append(cid)
                        members.append((pid, interest * person.activity))
                # group posts: mostly on the group topic; some authored by
                # members (distance 1 for them), the rest by outsiders
                resources: list[Resource] = []
                for _ in range(posts_per_group):
                    topical = rng.random() < topical_rate
                    resource = self._resource(platform, code, domain if topical else None)
                    store.add_resource(resource)
                    resources.append(resource)
                    if members and rng.random() < 0.35:
                        author = self._weighted_member(rng, members)
                        if author is not None:
                            store.accounts[author].created.append(resource.resource_id)
                # most recent first, as the API returns them
                resources.sort(key=lambda r: -r.timestamp)
                record.resource_ids.extend(r.resource_id for r in resources)

    # -- entry point --------------------------------------------------------------------

    def build(self) -> BuiltNetworks:
        """Generate all three platform stores and the synthetic web."""
        profile_ids: dict[str, dict[Platform, str]] = {
            p.person_id: {} for p in self._people
        }
        facebook = self._build_facebook(profile_ids)
        twitter = self._build_twitter(profile_ids)
        stores = {
            Platform.FACEBOOK: facebook,
            Platform.TWITTER: twitter,
            Platform.LINKEDIN: self._build_linkedin(profile_ids, twitter),
        }
        return BuiltNetworks(
            stores=stores,
            web=self._web,
            profile_ids=profile_ids,
            people=list(self._people),
        )
