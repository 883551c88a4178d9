"""Assemble the full evaluation dataset.

``build_dataset`` runs the complete production path end to end:

1. generate the population and the three platform stores;
2. **crawl** each platform through the simulated APIs — auth tokens,
   privacy checks, pagination, and rate limits included — exactly as the
   paper's collector did against the live platforms;
3. merge the per-platform graphs into the "All" graph;
4. run the Fig.-4 analysis flow (URL enrichment, language id, text
   processing, entity annotation) over every collected node once,
   producing the shared corpus;
5. derive the questionnaire ground truth and attach the 30 queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.need import ExpertiseNeed
from repro.entity.annotator import EntityAnnotator
from repro.entity.knowledge_base import KnowledgeBase
from repro.extraction.api import AuthToken, PlatformClient
from repro.extraction.crawler import CorpusAnalyzer, ResourceExtractor
from repro.extraction.url_content import UrlContentExtractor
from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer
from repro.socialgraph.graph import SocialGraph, merge_graphs
from repro.socialgraph.metamodel import Platform
from repro.synthetic.ground_truth import GroundTruth
from repro.synthetic.network_builder import (
    PAPER,
    SMALL,
    TINY,
    BuiltNetworks,
    NetworkBuilder,
    ScaleProfile,
)
from repro.synthetic.population import Person, generate_population
from repro.synthetic.queries import paper_queries
from repro.synthetic.seeds import build_knowledge_base
from repro.textproc.pipeline import TextPipeline


class DatasetScale(enum.Enum):
    """Preset sizes: TINY for unit tests, SMALL for benchmarks, PAPER for
    a full-volume run, XL for the streaming-only scale (~1M resources /
    10k candidates — served by :mod:`repro.synthetic.stream`, never by
    the materializing builder)."""

    TINY = "tiny"
    SMALL = "small"
    PAPER = "paper"
    XL = "xl"

    def _reject_xl(self, what: str) -> None:
        if self is DatasetScale.XL:
            raise ValueError(
                f"the xl scale has no {what}: it is streaming-only "
                "(~1M resources would be materialized); generate events "
                "with repro.synthetic.stream.stream_resources and build "
                "via ExpertFinder.from_stream"
            )

    @property
    def profile(self) -> ScaleProfile:
        self._reject_xl("network profile")
        return {"tiny": TINY, "small": SMALL, "paper": PAPER}[self.value]

    @property
    def population_size(self) -> int:
        self._reject_xl("population")
        return {"tiny": 12, "small": 40, "paper": 40}[self.value]


@dataclass
class EvaluationDataset:
    """Everything the experiments need, built once and shared."""

    scale: DatasetScale
    seed: int
    people: list[Person]
    networks: BuiltNetworks
    graphs: dict[Platform, SocialGraph]
    merged_graph: SocialGraph
    knowledge_base: KnowledgeBase
    analyzer: ResourceAnalyzer
    corpus: dict[str, AnalyzedResource]
    ground_truth: GroundTruth
    queries: list[ExpertiseNeed] = field(default_factory=list)

    def graph_for(self, platform: Platform | None) -> SocialGraph:
        """The per-platform graph, or the merged "All" graph for None."""
        return self.merged_graph if platform is None else self.graphs[platform]

    def candidates_for(self, platform: Platform | None) -> dict[str, tuple[str, ...]]:
        """Candidate id (= person id) → the profile ids contributing
        evidence under the given platform selection."""
        out: dict[str, tuple[str, ...]] = {}
        for person in self.people:
            profiles = self.networks.profile_ids[person.person_id]
            if platform is None:
                out[person.person_id] = tuple(profiles[p] for p in Platform)
            else:
                out[person.person_id] = (profiles[platform],)
        return out

    @property
    def person_ids(self) -> tuple[str, ...]:
        return tuple(p.person_id for p in self.people)


def default_analyzer() -> ResourceAnalyzer:
    """The analyzer every dataset build uses: the standard text pipeline
    plus the seed knowledge base. Snapshot loaders and stream builds,
    which have no dataset at hand, use it to get an equivalent one."""
    return ResourceAnalyzer(TextPipeline(), EntityAnnotator(build_knowledge_base()))


def build_dataset(
    scale: DatasetScale = DatasetScale.TINY, seed: int = 7
) -> EvaluationDataset:
    """Build the dataset for *scale* with the given master *seed*.

    Fully deterministic: the same (scale, seed) yields bit-identical
    graphs, corpus, and ground truth.
    """
    scale._reject_xl("materialized dataset")
    people = generate_population(seed, size=scale.population_size)
    networks = NetworkBuilder(people, scale.profile, seed + 1).build()

    extractor = ResourceExtractor()
    graphs: dict[Platform, SocialGraph] = {}
    for platform, store in networks.stores.items():
        clients = [
            PlatformClient(
                store,
                AuthToken(
                    token_id=f"tok:{platform.value}:{person.person_id}",
                    subject_profile_id=networks.profile_ids[person.person_id][platform],
                ),
            )
            for person in people
        ]
        graphs[platform] = extractor.extract(clients)
    merged = merge_graphs(graphs.values())

    kb = build_knowledge_base()
    analyzer = ResourceAnalyzer(TextPipeline(), EntityAnnotator(kb))
    assert networks.web is not None  # only a loaded dataset lacks its web
    url_extractor = UrlContentExtractor(networks.web)
    corpus = CorpusAnalyzer(analyzer, url_extractor).analyze_graph(merged)

    return EvaluationDataset(
        scale=scale,
        seed=seed,
        people=people,
        networks=networks,
        graphs=graphs,
        merged_graph=merged,
        knowledge_base=kb,
        analyzer=analyzer,
        corpus=corpus,
        ground_truth=GroundTruth(people),
        queries=paper_queries(),
    )
