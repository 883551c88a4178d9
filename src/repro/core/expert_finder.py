"""The public expert-finding facade (paper Fig. 1).

``ExpertFinder.build`` wires the whole system together for one
configuration: gather each candidate's evidence up to the configured
distance (Table 1), index the evidence (terms + entities), and expose
``find_experts`` which matches an expertise need against the indexes
(Eq. 1–2) and ranks candidates (Eq. 3).

Because the experiments sweep configurations over one dataset, the
expensive text/entity analysis can be done once (see
:class:`repro.extraction.crawler.CorpusAnalyzer`) and passed in as
*corpus*; the finder then only selects and indexes the evidence reachable
under its configuration. Nodes missing from it are analyzed by the same
``CorpusAnalyzer.analyze_nodes`` loop that built the corpus, platform
language annotations included, so a cold build indexes exactly what a
corpus-backed one does.
"""

from __future__ import annotations

import pathlib
import time
from collections.abc import Callable, Container, Iterable, Iterator, Mapping, Sequence
from types import EllipsisType, MappingProxyType
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.index.segments import SegmentedIndex, SegmentStats, _Rows

from repro.core.build_stats import BuildStats
from repro.core.config import FinderConfig
from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertScore, check_top_k
from repro.extraction.crawler import CorpusAnalyzer
from repro.index.analyzer import INDEXABLE_LANGUAGES, AnalyzedResource, ResourceAnalyzer
from repro.socialgraph.distance import ResourceGatherer, candidate_seeds
from repro.socialgraph.graph import SocialGraph

#: sentinel for "use the configured window" in rank-time overrides
#: (``None`` already means "no window", so it cannot double as unset)
_UNSET: EllipsisType = ...


def _supporter_rows(
    node_id: str,
    supporters: Iterable[tuple[str, int]],
    candidates: Container[str],
    max_distance: int,
) -> _Rows:
    """A streamed resource's *supporters* as evidence rows, refused
    unless there is at least one, each names a known candidate (a
    ``KeyError`` otherwise) once, at a distance in 0..*max_distance*.
    A graph build keeps each node once per candidate, at its minimal
    distance, so a repeated candidate would count one resource twice
    in Eq. 3."""
    rows = tuple((cid, distance) for cid, distance in supporters)
    if not rows:
        raise ValueError(f"resource {node_id!r} must support at least one candidate")
    named: set[str] = set()
    for candidate_id, distance in rows:
        if candidate_id not in candidates:
            raise KeyError(f"unknown candidate {candidate_id!r}")
        if candidate_id in named:
            raise ValueError(
                f"resource {node_id!r} names candidate {candidate_id!r} twice"
            )
        named.add(candidate_id)
        if not 0 <= distance <= max_distance:
            raise ValueError(f"distance {distance} outside 0..{max_distance}")
    return rows


class ExpertFinder:
    """Find experts for expertise needs within a candidate population."""

    def __init__(
        self,
        analyzer: ResourceAnalyzer,
        config: FinderConfig,
        *,
        evidence_counts: Mapping[str, int],
        segmented: "SegmentedIndex",
    ):
        self._analyzer = analyzer
        self._index = segmented
        self._config = config
        self._evidence_counts = dict(evidence_counts)
        self._build_stats: BuildStats | None = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: SocialGraph,
        candidates: Mapping[str, Sequence[str]] | Sequence[str],
        analyzer: ResourceAnalyzer,
        config: FinderConfig | None = None,
        *,
        corpus: Mapping[str, AnalyzedResource] | None = None,
        url_content: Callable[[str], str] | None = None,
        seal_threshold: int | None = None,
        compaction: str = "synchronous",
    ) -> "ExpertFinder":
        """Build a finder over *graph*.

        *candidates* is either a sequence of profile ids (each profile is
        its own candidate) or a mapping ``candidate id → profile ids``
        for candidates holding several profiles — the paper's "All"
        configuration aggregates one person's Facebook, Twitter, and
        LinkedIn evidence under a single candidate.

        *corpus* — pre-analyzed node texts keyed by node id; nodes missing
        from it are analyzed on the fly by
        :meth:`~repro.extraction.crawler.CorpusAnalyzer.analyze_nodes`
        (with *url_content* enrichment if provided).

        The build runs as a three-stage pipeline in one process —
        shared-frontier gathering, text/entity analysis, index fill —
        and exposes per-stage timings as :attr:`build_stats`. The index
        fill hands every gathered node, in gathered order, to the write
        buffer's ``add`` (the call every :meth:`observe` makes), which
        appends it to the buffer's columns, and the buffer seals once
        into the one sealed segment of a
        :class:`~repro.index.segments.SegmentedIndex`; streamed observes
        then touch only a fresh write buffer, which seals every
        *seal_threshold* resources and compacts per *compaction*.
        """
        config = config or FinderConfig()
        seeds = candidate_seeds(candidates)
        gatherer = ResourceGatherer(graph, include_friends=config.include_friends)

        # stage 1 — gather: one shared-frontier pass over all candidates;
        # each node is kept once per candidate, at its minimal distance
        t0 = time.perf_counter()
        gathered = gatherer.gather_many(seeds, config.max_distance)
        supporters_of: dict[str, list[tuple[str, int]]] = {}
        evidence_counts: dict[str, int] = {}
        for candidate_id, node_distance in gathered.distances.items():
            evidence_counts[candidate_id] = len(node_distance)
            for node_id, distance in node_distance.items():
                supporters_of.setdefault(node_id, []).append((candidate_id, distance))
        gather_s = time.perf_counter() - t0

        # stage 2 — analyze: corpus misses go through the text/entity
        # pipeline, in gathered order
        t0 = time.perf_counter()
        analyzed_of, misses = CorpusAnalyzer(analyzer, url_content).analyze_nodes(
            graph, gathered.kinds, corpus
        )
        analyze_s = time.perf_counter() - t0

        # stage 3 — index: timed from the first add to the last, so that
        # the seal into the base segment is not counted
        index_s = 0.0

        def resources() -> Iterator[tuple[AnalyzedResource, _Rows, bool]]:
            nonlocal index_s
            t0 = time.perf_counter()
            for node_id, analyzed in analyzed_of.items():
                indexed = analyzed.language in INDEXABLE_LANGUAGES
                yield analyzed, tuple(supporters_of[node_id]), indexed
            index_s = time.perf_counter() - t0

        finder = cls._assemble(
            analyzer,
            resources(),
            evidence_counts,
            config,
            seal_threshold=seal_threshold,
            compaction=compaction,
        )
        finder._build_stats = BuildStats(
            nodes=len(analyzed_of),
            analyzed=misses,
            indexed=finder.indexed_resources,
            gather_s=gather_s,
            analyze_s=analyze_s,
            index_s=index_s,
        )
        return finder

    @classmethod
    def from_stream(
        cls,
        candidates: Sequence[str],
        events: Iterable[tuple[Any, ...]],
        analyzer: ResourceAnalyzer,
        config: FinderConfig | None = None,
        *,
        seal_threshold: int | None = None,
        compaction: str = "synchronous",
    ) -> "ExpertFinder":
        """Build a finder from an *event stream*, never materializing a
        graph: *events* yields ``(node_id, text, supporters)`` or
        ``(node_id, text, supporters, language)`` tuples in stream
        order, where *supporters* lists ``(candidate_id, distance)``
        evidence rows exactly as :meth:`observe` takes them.

        Each event is analyzed as it arrives and handed to the write
        buffer's ``add``, so peak memory is the growing index, not the
        stream, making this the entry point for the ``xl`` scale's
        generator (:mod:`repro.synthetic.stream`). The buffer seals once
        into the base segment. The result is identical to building
        from an equivalent materialized graph, and the layout options —
        *seal_threshold*, *compaction* — apply unchanged.
        """
        config = config or FinderConfig()
        if not candidates:
            raise ValueError("candidates must be non-empty")
        evidence_counts: dict[str, int] = {cid: 0 for cid in candidates}
        if len(evidence_counts) != len(candidates):
            raise ValueError("duplicate candidate ids")
        seen: set[str] = set()
        analyze_s = 0.0
        stream_s = 0.0

        def resources() -> Iterator[tuple[AnalyzedResource, _Rows, bool]]:
            # timed from the first event to the last add, so that the
            # seal into the base segment is not counted as indexing
            nonlocal analyze_s, stream_s
            t0 = time.perf_counter()
            for event in events:
                node_id, text, supporters, *rest = event
                rows = _supporter_rows(
                    node_id, supporters, evidence_counts, config.max_distance
                )
                if node_id in seen:
                    raise ValueError(f"resource {node_id!r} already streamed")
                seen.add(node_id)
                ta = time.perf_counter()
                analyzed = analyzer.analyze(
                    node_id, text, language=rest[0] if rest else None
                )
                analyze_s += time.perf_counter() - ta
                for candidate_id, _distance in rows:
                    evidence_counts[candidate_id] += 1
                yield analyzed, rows, analyzed.language in INDEXABLE_LANGUAGES
            stream_s = time.perf_counter() - t0

        finder = cls._assemble(
            analyzer,
            resources(),
            evidence_counts,
            config,
            seal_threshold=seal_threshold,
            compaction=compaction,
        )
        finder._build_stats = BuildStats(
            nodes=len(seen),
            analyzed=len(seen),
            indexed=finder.indexed_resources,
            gather_s=0.0,
            analyze_s=analyze_s,
            index_s=stream_s - analyze_s,
        )
        return finder

    @classmethod
    def _assemble(
        cls,
        analyzer: ResourceAnalyzer,
        resources: Iterable[tuple[AnalyzedResource, _Rows, bool]],
        evidence_counts: dict[str, int],
        config: FinderConfig,
        *,
        seal_threshold: int | None,
        compaction: str,
    ) -> "ExpertFinder":
        """Fill a segmented index with *resources* and wrap it — the
        shared tail of :meth:`build` and :meth:`from_stream`.
        *evidence_counts* is read only after *resources* is consumed."""
        from repro.index.segments import DEFAULT_SEAL_THRESHOLD, SegmentedIndex

        segmented = SegmentedIndex.from_built(
            resources,
            config,
            seal_threshold=(
                DEFAULT_SEAL_THRESHOLD if seal_threshold is None else seal_threshold
            ),
            compaction=compaction,
        )
        return cls(
            analyzer,
            config,
            evidence_counts=evidence_counts,
            segmented=segmented,
        )

    # -- persistence ---------------------------------------------------------------

    def save(self, directory: str | pathlib.Path) -> None:
        """Persist the built indexes and evidence maps as a snapshot
        directory (see :mod:`repro.storage.snapshot`), so later processes
        warm-start with :meth:`load` instead of re-gathering and
        re-analyzing the evidence."""
        from repro.storage.snapshot import save_finder

        save_finder(self, directory)

    @classmethod
    def load(
        cls, directory: str | pathlib.Path, analyzer: ResourceAnalyzer
    ) -> "ExpertFinder":
        """Load a finder from a snapshot written by :meth:`save`.

        *analyzer* must be equivalent to the build-time analyzer (it is
        code, not state, and is therefore not persisted)."""
        from repro.storage.snapshot import load_finder

        return load_finder(directory, analyzer)

    # -- queries -------------------------------------------------------------------

    @property
    def config(self) -> FinderConfig:
        return self._config

    @property
    def segmented_index(self) -> "SegmentedIndex":
        """The segmented index every query runs on."""
        return self._index

    @property
    def index_stats(self) -> "SegmentStats":
        """Segment/buffer gauges of the segmented index."""
        return self._index.stats

    @property
    def evidence_counts(self) -> Mapping[str, int]:
        """Read-only view of candidate → gathered-evidence counts."""
        return MappingProxyType(self._evidence_counts)

    @property
    def indexed_resources(self) -> int:
        """Number of evidence items admitted into the indexes."""
        return self._index.document_count

    @property
    def build_stats(self) -> BuildStats | None:
        """Per-stage timings of the :meth:`build` that produced this
        finder; ``None`` for snapshot-loaded finders (nothing was built)."""
        return self._build_stats

    def evidence_count(self, candidate_id: str) -> int:
        """Evidence items gathered for one candidate (pre language cut)."""
        return self._evidence_counts.get(candidate_id, 0)

    # -- streaming updates --------------------------------------------------------

    def observe(
        self,
        node_id: str,
        text: str,
        supporters: Sequence[tuple[str, int]],
        *,
        language: str | None = None,
    ) -> bool:
        """Ingest one new resource without rebuilding the finder.

        *supporters* lists (candidate id, distance) pairs the resource is
        evidence for — e.g. its author at distance 1 and fellow group
        members at distance 2 — naming each candidate once. Returns True
        when the resource entered the index (False for non-English
        content, which is observed as evidence but not indexed, mirroring
        the build-time language cut).

        The resource lands in the write buffer and no sealed segment is
        touched; subsequent queries see updated irf/eirf values
        immediately. A non-indexing observe changes no statistics and
        cannot match any query.
        """
        rows = _supporter_rows(
            node_id, supporters, self._evidence_counts, self._config.max_distance
        )
        if node_id in self._index:
            raise ValueError(f"resource {node_id!r} already observed")

        analyzed = self._analyzer.analyze(node_id, text, language=language)
        indexed = analyzed.language in INDEXABLE_LANGUAGES
        self._index.add(analyzed, rows, index=indexed)
        for candidate_id, _ in rows:
            self._evidence_counts[candidate_id] += 1
        return indexed

    def analyze_need(self, need: ExpertiseNeed | str) -> AnalyzedResource:
        """*need*'s text as the query side of Eq. 1 reads it: analyzed as
        English by the finder's analyzer."""
        text = need.text if isinstance(need, ExpertiseNeed) else need
        return self._analyzer.analyze("__query__", text, language="en")

    def find_experts(
        self,
        need: ExpertiseNeed | str,
        *,
        top_k: int | None = None,
        alpha: float | None = None,
        window: int | float | None | EllipsisType = _UNSET,
    ) -> list[ExpertScore]:
        """Rank the candidate experts for *need* (Eq. 3); the full list EX
        unless *top_k* (None or a non-negative int) truncates it.
        *alpha* and *window* override the configured values for
        parameter sweeps (``window=None`` means "no window"; leave it at
        the default to use the configured window).

        Every live segment and the write buffer score the need with one
        numpy kernel; the list equals the object path's, bit for bit.
        """
        check_top_k(top_k)
        return self._index.find_experts(
            self.analyze_need(need),
            alpha=self._config.alpha if alpha is None else alpha,
            window=self._config.window if window is _UNSET else window,
            top_k=top_k,
        )
