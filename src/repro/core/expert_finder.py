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
under its configuration.
"""

from __future__ import annotations

import pathlib
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from types import EllipsisType, MappingProxyType
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.index.segments import SegmentedIndex, SegmentStats
    from repro.index.sharded import ShardedIndex, ShardedQueryExecutor

from repro.core.build_stats import BuildStats
from repro.core.config import FinderConfig
from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertRanker, ExpertScore
from repro.index.blockmax import PruningStats
from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer
from repro.index.entity_index import EntityIndex
from repro.index.inverted import InvertedIndex
from repro.index.parallel import DEFAULT_CHUNK_SIZE, AnalysisTask, analyze_tasks, build_indexes
from repro.index.statistics import CollectionStatistics
from repro.index.vsm import ResourceMatch, VectorSpaceRetriever
from repro.socialgraph.distance import ResourceGatherer, node_text, node_urls
from repro.socialgraph.graph import SocialGraph

#: languages admitted into the index: English resources (paper Sec. 3.1)
#: plus texts too short for identification (profile fragments)
_INDEXABLE_LANGUAGES = frozenset({"en", "und"})

#: why a sharded finder rejects the object path
_SHARDED_OBJECT = (
    "a sharded finder cannot serve the object engine "
    "(its collection is split across shards)"
)

#: sentinel for "use the configured window" in rank-time overrides
#: (``None`` already means "no window", so it cannot double as unset)
_UNSET: EllipsisType = ...

#: query-engine selectors: "columnar" scores the compiled segment
#: columns (:class:`~repro.index.segments.SegmentedIndex`),
#: "columnar-pruned" adds block-max dynamic pruning on the same path
#: (exact for absolute windows, automatic exhaustive fallback
#: otherwise), "object" is the reference retriever/ranker path; all
#: rank byte-identically
_ENGINES = ("columnar", "columnar-pruned", "object")


def _check_shards(shards: int | None) -> None:
    if shards is not None and (
        isinstance(shards, bool) or not isinstance(shards, int) or shards < 1
    ):
        raise ValueError(f"shards must be a positive int, got {shards!r}")


def _check_top_k(top_k: int | None) -> None:
    """``top_k`` is None (the full list) or a non-negative, non-bool int."""
    if top_k is not None and (
        isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 0
    ):
        raise ValueError(f"top_k must be None or a non-negative int, got {top_k!r}")


class ExpertFinder:
    """Find experts for expertise needs within a candidate population."""

    def __init__(
        self,
        analyzer: ResourceAnalyzer,
        evidence_of: Mapping[str, Sequence[tuple[str, int]]],
        config: FinderConfig,
        *,
        evidence_counts: Mapping[str, int],
        indexed_count: int,
        engine: str = "columnar",
        segmented: "SegmentedIndex | None" = None,
        sharded: "ShardedIndex | None" = None,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        index: "SegmentedIndex | ShardedIndex | None" = segmented or sharded
        if index is None or (segmented is not None and sharded is not None):
            raise ValueError("exactly one of segmented or sharded must be given")
        self._analyzer = analyzer
        self._index = index
        self._segmented = segmented
        self._sharded = sharded
        #: the object path's retriever over the merged collection, built
        #: on first use and dropped by the next indexed observe
        self._retriever: VectorSpaceRetriever | None = None
        self._evidence_of = evidence_of
        self._ranker = ExpertRanker(evidence_of, config)
        self._config = config
        self._evidence_counts = dict(evidence_counts)
        self._indexed_count = indexed_count
        self._build_stats: BuildStats | None = None
        self._engine_kind = engine
        if sharded is not None and engine == "object":
            raise ValueError(_SHARDED_OBJECT)
        #: cumulative block-max counters for this finder's pruned
        #: queries; survives snapshot reloads of the same object
        self._pruning_stats = PruningStats()

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
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        analyzer_factory: Callable[[], ResourceAnalyzer] | None = None,
        shards: int | None = None,
        seal_threshold: int | None = None,
        compaction: str = "synchronous",
        block_span: int | None = None,
    ) -> "ExpertFinder":
        """Build a finder over *graph*.

        *candidates* is either a sequence of profile ids (each profile is
        its own candidate) or a mapping ``candidate id → profile ids``
        for candidates holding several profiles — the paper's "All"
        configuration aggregates one person's Facebook, Twitter, and
        LinkedIn evidence under a single candidate.

        *corpus* — pre-analyzed node texts keyed by node id; nodes missing
        from it are analyzed on the fly (with *url_content* enrichment if
        provided).

        The build runs as a three-stage pipeline — shared-frontier
        gathering, text/entity analysis, index fill — and *workers*
        shards the analysis and indexing stages across a process pool
        in chunks of *chunk_size* nodes (see :mod:`repro.index.parallel`;
        *analyzer_factory* is only needed on platforms without ``fork``).
        Results are identical for any worker count; per-stage timings
        are exposed as :attr:`build_stats`.

        The built indexes become the one sealed segment of a
        :class:`~repro.index.segments.SegmentedIndex`; streamed observes
        then touch only its write buffer, which seals every
        *seal_threshold* resources and compacts per *compaction*.

        *block_span* sets the doc-index span per block-max pruning block
        (None = the default in :mod:`repro.index.blockmax`); it never
        changes rankings, only how coarsely the "columnar-pruned" engine
        can skip.

        *shards* partitions the candidates (and their evidence) into K
        :class:`~repro.index.sharded.ShardIndex` groups behind a
        scatter-gather coordinator — rankings stay byte-identical while
        queries can fan out across a worker pool (see
        :meth:`start_scatter_pool`).
        """
        config = config or FinderConfig()
        _check_shards(shards)
        if not candidates:
            raise ValueError("candidates must be non-empty")
        if isinstance(candidates, Mapping):
            seeds = {cid: tuple(pids) for cid, pids in candidates.items()}
        else:
            seeds = {pid: (pid,) for pid in candidates}
        gatherer = ResourceGatherer(graph, include_friends=config.include_friends)

        # stage 1 — gather: one shared-frontier pass over all candidates;
        # each node is kept once per candidate, at its minimal distance
        t0 = time.perf_counter()
        gathered = gatherer.gather_many(seeds, config.max_distance)
        evidence_of: dict[str, list[tuple[str, int]]] = {}
        evidence_counts: dict[str, int] = {}
        for candidate_id, node_distance in gathered.distances.items():
            evidence_counts[candidate_id] = len(node_distance)
            for node_id, distance in node_distance.items():
                evidence_of.setdefault(node_id, []).append((candidate_id, distance))
        gather_s = time.perf_counter() - t0

        # stage 2 — analyze: corpus misses go through the (parallel)
        # text/entity pipeline; result order follows the gathered order
        t0 = time.perf_counter()
        unique_nodes: dict[str, AnalyzedResource | None] = {}
        tasks: list[AnalysisTask] = []
        for node_id, kind in gathered.kinds.items():
            analyzed = corpus.get(node_id) if corpus is not None else None
            if analyzed is None:
                text = node_text(graph, node_id, kind)
                if url_content is not None:
                    for url in node_urls(graph, node_id, kind):
                        text = f"{text} {url_content(url)}"
                tasks.append((node_id, text, None))
            unique_nodes[node_id] = analyzed
        for analyzed in analyze_tasks(
            analyzer,
            tasks,
            workers=workers,
            chunk_size=chunk_size,
            analyzer_factory=analyzer_factory,
        ):
            unique_nodes[analyzed.doc_id] = analyzed
        analyze_s = time.perf_counter() - t0

        # stage 3 — index: fill (or shard and merge) the two indexes
        t0 = time.perf_counter()
        documents = [
            analyzed
            for analyzed in unique_nodes.values()
            if analyzed is not None and analyzed.language in _INDEXABLE_LANGUAGES
        ]
        term_index, entity_index = build_indexes(
            documents, workers=workers, chunk_size=chunk_size
        )
        index_s = time.perf_counter() - t0

        finder = cls._assemble(
            analyzer,
            term_index,
            entity_index,
            evidence_of,
            evidence_counts,
            len(documents),
            config,
            shards=shards,
            seal_threshold=seal_threshold,
            compaction=compaction,
            block_span=block_span,
        )
        finder._build_stats = BuildStats(
            workers=workers,
            nodes=len(unique_nodes),
            analyzed=len(tasks),
            indexed=len(documents),
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
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        analyzer_factory: Callable[[], ResourceAnalyzer] | None = None,
        shards: int | None = None,
        seal_threshold: int | None = None,
        compaction: str = "synchronous",
        block_span: int | None = None,
    ) -> "ExpertFinder":
        """Build a finder from an *event stream*, never materializing a
        graph: *events* yields ``(node_id, text, supporters)`` or
        ``(node_id, text, supporters, language)`` tuples in stream
        order, where *supporters* lists ``(candidate_id, distance)``
        evidence rows exactly as :meth:`observe` takes them.

        Events are analyzed in chunks of ``chunk_size * workers`` (the
        parallel-analysis pool absorbs each chunk, so peak memory is the
        chunk plus the growing indexes, not the stream), making this the
        entry point for the ``xl`` scale's generator
        (:mod:`repro.synthetic.stream`). The result is identical to
        building from an equivalent materialized graph, and the layout
        options — *shards*, *seal_threshold*, *compaction*, *block_span*
        — apply unchanged.
        """
        config = config or FinderConfig()
        _check_shards(shards)
        if not candidates:
            raise ValueError("candidates must be non-empty")
        evidence_counts: dict[str, int] = {cid: 0 for cid in candidates}
        if len(evidence_counts) != len(candidates):
            raise ValueError("duplicate candidate ids")
        evidence_of: dict[str, list[tuple[str, int]]] = {}
        term_index = InvertedIndex()
        entity_index = EntityIndex()
        indexed_count = 0
        seen: set[str] = set()
        batch: list[AnalysisTask] = []
        batch_rows: list[tuple[tuple[str, int], ...]] = []
        flush_at = max(chunk_size, chunk_size * workers)
        t0 = time.perf_counter()
        analyze_s = 0.0

        def flush() -> None:
            nonlocal indexed_count, analyze_s
            ta = time.perf_counter()
            analyzed_batch = analyze_tasks(
                analyzer,
                batch,
                workers=workers,
                chunk_size=chunk_size,
                analyzer_factory=analyzer_factory,
            )
            analyze_s += time.perf_counter() - ta
            for analyzed, rows in zip(analyzed_batch, batch_rows):
                evidence_of[analyzed.doc_id] = list(rows)
                for candidate_id, _distance in rows:
                    evidence_counts[candidate_id] += 1
                if analyzed.language in _INDEXABLE_LANGUAGES:
                    term_index.add_document(analyzed.doc_id, analyzed.term_counts)
                    entity_index.add_document(
                        analyzed.doc_id, analyzed.entity_counts
                    )
                    indexed_count += 1
            del batch[:]
            del batch_rows[:]

        for event in events:
            node_id, text, supporters, *rest = event
            language = rest[0] if rest else None
            rows = tuple((cid, distance) for cid, distance in supporters)
            if not rows:
                raise ValueError(
                    f"resource {node_id!r} must support at least one candidate"
                )
            for candidate_id, distance in rows:
                if candidate_id not in evidence_counts:
                    raise KeyError(f"unknown candidate {candidate_id!r}")
                if not 0 <= distance <= config.max_distance:
                    raise ValueError(
                        f"distance {distance} outside 0..{config.max_distance}"
                    )
            if node_id in seen:
                raise ValueError(f"resource {node_id!r} already streamed")
            seen.add(node_id)
            batch.append((node_id, text, language))
            batch_rows.append(rows)
            if len(batch) >= flush_at:
                flush()
        flush()
        stream_s = time.perf_counter() - t0

        finder = cls._assemble(
            analyzer,
            term_index,
            entity_index,
            evidence_of,
            evidence_counts,
            indexed_count,
            config,
            shards=shards,
            seal_threshold=seal_threshold,
            compaction=compaction,
            block_span=block_span,
        )
        finder._build_stats = BuildStats(
            workers=workers,
            nodes=len(seen),
            analyzed=len(seen),
            indexed=indexed_count,
            gather_s=0.0,
            analyze_s=analyze_s,
            index_s=stream_s - analyze_s,
        )
        return finder

    @classmethod
    def _assemble(
        cls,
        analyzer: ResourceAnalyzer,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        evidence_of: dict[str, list[tuple[str, int]]],
        evidence_counts: dict[str, int],
        indexed_count: int,
        config: FinderConfig,
        *,
        shards: int | None,
        seal_threshold: int | None,
        compaction: str,
        block_span: int | None,
    ) -> "ExpertFinder":
        """Wrap built indexes in a segmented (or K-sharded) index — the
        shared tail of :meth:`build` and :meth:`from_stream`."""
        from repro.index.segments import DEFAULT_SEAL_THRESHOLD, SegmentedIndex
        from repro.index.sharded import ShardedIndex

        layout: dict[str, Any] = {
            "seal_threshold": (
                DEFAULT_SEAL_THRESHOLD if seal_threshold is None else seal_threshold
            ),
            "compaction": compaction,
            "block_span": block_span,
        }
        counts: dict[str, Any] = {
            "evidence_counts": evidence_counts,
            "indexed_count": indexed_count,
        }
        if shards is not None:
            sharded = ShardedIndex.from_built(
                term_index,
                entity_index,
                evidence_of,
                evidence_counts,
                config,
                shards=shards,
                **layout,
            )
            return cls(analyzer, evidence_of, config, sharded=sharded, **counts)
        segmented = SegmentedIndex.from_built(
            term_index, entity_index, evidence_of, config, **layout
        )
        return cls(analyzer, evidence_of, config, segmented=segmented, **counts)

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
    def index_mode(self) -> str:
        """The index layout: "segmented", or "sharded" for a finder built
        with ``shards=K``."""
        return "segmented" if self._segmented is not None else "sharded"

    @property
    def segmented_index(self) -> "SegmentedIndex | None":
        """The segmented index (None for other layouts)."""
        return self._segmented

    @property
    def sharded_index(self) -> "ShardedIndex | None":
        """The sharded scatter-gather index (None for other layouts)."""
        return self._sharded

    @property
    def index_stats(self) -> "SegmentStats | None":
        """Segment/buffer gauges of the segmented index; None for
        sharded finders."""
        return None if self._segmented is None else self._segmented.stats

    @property
    def evidence_of(self) -> Mapping[str, Sequence[tuple[str, int]]]:
        """Read-only view of the resource → supporters relation."""
        return MappingProxyType(self._evidence_of)

    @property
    def evidence_counts(self) -> Mapping[str, int]:
        """Read-only view of candidate → gathered-evidence counts."""
        return MappingProxyType(self._evidence_counts)

    @property
    def indexed_resources(self) -> int:
        """Number of evidence items admitted into the indexes."""
        return self._indexed_count

    @property
    def build_stats(self) -> BuildStats | None:
        """Per-stage timings of the :meth:`build` that produced this
        finder; ``None`` for snapshot-loaded finders (nothing was built)."""
        return self._build_stats

    def evidence_count(self, candidate_id: str) -> int:
        """Evidence items gathered for one candidate (pre language cut)."""
        return self._evidence_counts.get(candidate_id, 0)

    # -- query engine -------------------------------------------------------------

    @property
    def engine(self) -> str:
        """Which path :meth:`find_experts` takes: "columnar" (the compiled
        segment columns, the default), "columnar-pruned" (the same path
        with block-max dynamic pruning — exact for absolute-count
        windows, automatic exhaustive fallback otherwise), or "object"
        (the reference retriever/ranker path, unavailable on sharded
        finders). Rankings are byte-identical on every engine; the
        object path additionally powers :meth:`match_resources` and
        :meth:`rank_matches`, which expose per-resource breakdowns."""
        return self._engine_kind

    @property
    def pruning_stats(self) -> PruningStats:
        """Cumulative block-max counters (pruned/fallback queries,
        blocks scanned/skipped) across this finder's "columnar-pruned"
        queries — all zero until that engine is selected."""
        return self._pruning_stats

    @engine.setter
    def engine(self, kind: str) -> None:
        if kind not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {kind!r}")
        if kind == "object" and self._sharded is not None:
            raise ValueError(_SHARDED_OBJECT)
        self._engine_kind = kind

    def _object_retriever(self) -> VectorSpaceRetriever:
        """The object path's :class:`VectorSpaceRetriever` over the merged
        segments + buffer — the reference the fast engines are tested
        against. Built on first use; an indexed observe drops it."""
        segmented = self._segmented
        if segmented is None:
            raise RuntimeError(_SHARDED_OBJECT)
        if self._retriever is None:
            term_index, entity_index, _evidence = segmented.merged_slice()
            self._retriever = VectorSpaceRetriever(
                term_index,
                entity_index,
                CollectionStatistics(term_index, entity_index),
                idf_exponent=self._config.idf_exponent,
            )
        return self._retriever

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
        members at distance 2. Returns True when the resource entered
        the index (False for non-English content, which is observed as
        evidence but not indexed, mirroring the build-time language cut).

        The resource lands in the write buffer (of every owning shard,
        on a sharded finder) and no compiled segment state is lost;
        subsequent queries see updated irf/eirf values immediately. A
        non-indexing observe changes no statistics and cannot match any
        query.
        """
        if not supporters:
            raise ValueError("a resource must support at least one candidate")
        for candidate_id, distance in supporters:
            if not 0 <= distance <= self._config.max_distance:
                raise ValueError(
                    f"distance {distance} outside 0..{self._config.max_distance}"
                )
            if candidate_id not in self._evidence_counts:
                raise KeyError(f"unknown candidate {candidate_id!r}")
        if node_id in self._evidence_of:
            raise ValueError(f"resource {node_id!r} already observed")

        analyzed = self._analyzer.analyze(node_id, text, language=language)
        indexed = analyzed.language in _INDEXABLE_LANGUAGES
        # a sharded index routes restricted rows to the owning shards'
        # write buffers and broadcasts to pool workers in lockstep
        self._index.add(analyzed, supporters, index=indexed)
        if indexed:
            self._retriever = None  # the collection statistics moved
        self._evidence_of[node_id] = list(supporters)
        for candidate_id, _ in supporters:
            self._evidence_counts[candidate_id] += 1
        if indexed:
            self._indexed_count += 1
        return indexed

    def match_resources(
        self,
        need: ExpertiseNeed | str,
        *,
        alpha: float | None = None,
        limit: int | None = None,
    ) -> list[ResourceMatch]:
        """The relevant-resource set RR for a need, best first (Eq. 1),
        computed on the object path (not available on sharded finders).

        *alpha* overrides the configured value for parameter sweeps —
        the indexes do not depend on it, so no rebuild is needed.
        *limit* keeps only the best *limit* matches, selected with the
        retriever's bounded-heap fast path; the prefix is identical to
        the unlimited result's.
        """
        retriever = self._object_retriever()
        query = self._analyze_need(need)
        effective_alpha = self._config.alpha if alpha is None else alpha
        if limit is None:
            return retriever.retrieve(query, effective_alpha)
        return retriever.retrieve_top_k(query, effective_alpha, limit)

    def _analyze_need(self, need: ExpertiseNeed | str) -> AnalyzedResource:
        text = need.text if isinstance(need, ExpertiseNeed) else need
        return self._analyzer.analyze("__query__", text, language="en")

    def rank_matches(
        self,
        matches: Sequence[ResourceMatch],
        *,
        window: int | float | None | EllipsisType = _UNSET,
        config: FinderConfig | None = None,
    ) -> list[ExpertScore]:
        """Apply the window and Eq. 3 to an already retrieved match list
        (lets sweeps reuse one retrieval across several window values).

        *config* overrides every rank-time parameter (window, weight
        interval, normalization); it must agree with the build-time
        parameters, because the evidence was gathered under them.
        """
        if config is not None:
            if (
                config.max_distance != self._config.max_distance
                or config.include_friends != self._config.include_friends
            ):
                raise ValueError(
                    "rank-time config must match the finder's build-time "
                    "max_distance and include_friends"
                )
            ranker = ExpertRanker(self._evidence_of, config)
        elif window is _UNSET:
            ranker = self._ranker
        else:
            ranker = ExpertRanker(self._evidence_of, self._config.with_(window=window))
        return ranker.rank(matches)

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

        The "columnar" engines score document-at-a-time across the live
        segments plus the write buffer (or scatter across shards); the
        "object" engine is the reference retriever/ranker path. All
        paths produce the same list, bit for bit.

        On the object path, when the effective window is an absolute
        resource count, only the top-window matches can contribute to
        Eq. 3, so retrieval takes the bounded-heap fast path; fractional
        and disabled windows depend on the total match count and
        retrieve fully.
        """
        _check_top_k(top_k)
        effective_window = self._config.window if window is _UNSET else window
        if self._engine_kind == "object":
            limit = (
                effective_window
                if isinstance(effective_window, int)
                and not isinstance(effective_window, bool)
                else None
            )
            matches = self.match_resources(need, alpha=alpha, limit=limit)
            ranked = self.rank_matches(matches, window=window)
            return ranked if top_k is None else ranked[:top_k]
        return self._index.find_experts(
            self._analyze_need(need),
            alpha=self._config.alpha if alpha is None else alpha,
            window=effective_window,
            top_k=top_k,
            pruned=self._engine_kind == "columnar-pruned",
            stats=self._pruning_stats,
        )

    def find_experts_many(
        self,
        needs: Sequence[ExpertiseNeed | str],
        *,
        top_k: int | None = None,
        alpha: float | None = None,
        window: int | float | None | EllipsisType = _UNSET,
    ) -> list[list[ExpertScore]]:
        """Batch counterpart of :meth:`find_experts` — identical results
        to a serial loop. On a sharded finder with an active scatter
        pool the batch is pipelined through the pool, overlapping this
        process's analyze/merge with the workers' shard scoring;
        everywhere else it loops."""
        _check_top_k(top_k)
        sharded = self._sharded
        if sharded is None or sharded.executor is None:
            return [
                self.find_experts(need, top_k=top_k, alpha=alpha, window=window)
                for need in needs
            ]
        return sharded.find_experts_many(
            [self._analyze_need(need) for need in needs],
            alpha=self._config.alpha if alpha is None else alpha,
            window=self._config.window if window is _UNSET else window,
            top_k=top_k,
            pruned=self._engine_kind == "columnar-pruned",
            stats=self._pruning_stats,
        )

    # -- the scatter pool ---------------------------------------------------------

    def start_scatter_pool(self) -> "ShardedQueryExecutor":
        """Fork the persistent per-shard worker pool (sharded finders
        only; idempotent). Queries then scatter to the workers instead
        of evaluating shards serially in this process."""
        if self._sharded is None:
            raise RuntimeError("only a sharded finder has a scatter pool")
        return self._sharded.start_executor()

    def close_scatter_pool(self) -> None:
        """Stop the scatter pool if one is running (idempotent)."""
        if self._sharded is not None:
            self._sharded.stop_executor()
