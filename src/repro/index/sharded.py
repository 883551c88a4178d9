"""Candidate-sharded scatter-gather query execution.

The paper's pipeline decomposes cleanly over *candidate* partitions:
Eq. 1 scores resources, Eq. 3 folds each resource's score into the
candidates it is evidence for. Partition the candidates into K disjoint
shards and give each shard the resources supporting at least one of its
candidates, and every shard can evaluate Eq. 1 independently — provided
all shards score with the **union** collection statistics (irf/eirf over
the full collection, not the shard), because a resource duplicated into
two shards must produce the same float score in both. The coordinator
then deduplicates the per-shard ``(-score, doc_id)`` entries (duplicates
are identical tuples), applies the global window cut, and runs one Eq. 3
fold over its full evidence rows — byte-identical to the single-index
path (``tests/index/test_sharded.py`` pins this across shard counts,
engines, and interleaved observes).

Three layers:

* :class:`GlobalStatistics` — the union N / df tables every shard
  scores with; updated on observe, picklable for worker transit;
* :class:`ShardIndex` — a :class:`~repro.index.segments.SegmentedIndex`
  over one shard's resources whose ``_query_weights`` delegate to the
  shared global statistics; exposes :meth:`ShardIndex.shard_entries`
  (the scatter payload) on top of the inherited segment machinery
  (per-segment scoring and cut, block-max pruning, write buffer,
  compaction);
* :class:`ShardedIndex` — the coordinator: partition, scatter (inline
  or through a :class:`ShardedQueryExecutor` process pool), exact merge
  + fold, and observe routing.

The executor forks K persistent workers (one pipe each). In-memory
shards are inherited copy-on-write; snapshot-backed shards are opened
*inside* each worker from the mmap-able v3 section files, so all
workers share the page cache and warm-up is one ``open``, not one
rebuild (``benchmarks/bench_sharded.py`` checks private RSS does not
scale with worker count). An absolute window lets every shard cut its
own matches to the window before shipping them (a duplicated document
ranks no worse inside a shard than globally, so the union of the
per-shard windows holds the global one). Pruned evaluation composes:
each worker runs its block-max walk against a shared
``multiprocessing.Value`` floor, so a shard that fills its window early
raises the skip threshold for every other shard mid-query.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections.abc import Iterable, Mapping, Sequence
from typing import Any
from dataclasses import dataclass

# Direct submodule imports only — same cycle rule as repro.index.segments.
from repro.core.config import FinderConfig
from repro.core.ranking import ExpertScore
from repro.core.scoring import distance_weight_table, window_size
from repro.index.analyzer import AnalyzedResource
from repro.index.blockmax import PruningStats
from repro.index.entity_index import EntityIndex
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    DEFAULT_FANOUT,
    DEFAULT_SEAL_THRESHOLD,
    SegmentedIndex,
    _Rows,
    fold_experts,
    plan_query,
)

#: queries a scatter_many batch keeps in flight per worker; bounds both
#: pipe backlog and the coordinator's reply lag
DEFAULT_BATCH_INFLIGHT = 4

#: seconds a scatter waits on one worker before declaring it wedged
DEFAULT_WORKER_TIMEOUT = 120.0


def partition_candidates(
    candidates: Iterable[str], shards: int
) -> list[tuple[str, ...]]:
    """Deterministic round-robin partition of the sorted candidate ids.

    Depends only on the candidate *set* and the shard count, so a
    snapshot load recomputes the identical partition from the meta
    candidate records without storing per-candidate assignments.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    ordered = sorted(candidates)
    if not ordered:
        raise ValueError("cannot partition an empty candidate set")
    return [tuple(ordered[k::shards]) for k in range(shards)]


class GlobalStatistics:
    """Union collection statistics shared by every shard.

    Shards duplicate resources (a doc supporting candidates in two
    shards lives in both), so per-shard document frequencies are *not*
    additive — these tables are built from the full collection and only
    ever updated from the full stream. The irf/eirf ratios repeat the
    integers, and therefore the floats, of a
    :class:`~repro.index.statistics.CollectionStatistics` over the whole
    collection exactly.
    """

    __slots__ = (
        "idf_exponent",
        "doc_count",
        "_term_df",
        "_entity_df",
        "_tw_cache",
        "_ew_cache",
    )

    def __init__(
        self,
        idf_exponent: float,
        doc_count: int = 0,
        term_df: Mapping[str, int] | None = None,
        entity_df: Mapping[str, int] | None = None,
    ):
        self.idf_exponent = idf_exponent
        self.doc_count = doc_count
        self._term_df: dict[str, int] = dict(term_df or {})
        self._entity_df: dict[str, int] = dict(entity_df or {})
        self._tw_cache: dict[str, float] = {}
        self._ew_cache: dict[str, float] = {}

    @classmethod
    def from_indexes(
        cls,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        idf_exponent: float,
    ) -> "GlobalStatistics":
        """Build from the *unsharded* indexes of the full collection."""
        stats = cls(idf_exponent, doc_count=term_index.document_count)
        for term, postings in term_index.items():
            stats._term_df[term] = len(postings)
        for uri, postings in entity_index.items():
            stats._entity_df[uri] = len(postings)
        return stats

    def add_document(self, analyzed: AnalyzedResource) -> None:
        """Absorb one newly indexed document into N and the df tables
        (mirrors what unsharded indexes would have recorded)."""
        self.doc_count += 1
        term_df = self._term_df
        for term, count in analyzed.term_counts.items():
            if count > 0:
                term_df[term] = term_df.get(term, 0) + 1
        entity_df = self._entity_df
        for uri, (count, _d_score) in analyzed.entity_counts.items():
            if count > 0:
                entity_df[uri] = entity_df.get(uri, 0) + 1
        self._tw_cache.clear()
        self._ew_cache.clear()

    def irf(self, term: str) -> float:
        df = self._term_df.get(term, 0)
        return math.log(1.0 + self.doc_count / df) if df else 0.0

    def eirf(self, entity_uri: str) -> float:
        df = self._entity_df.get(entity_uri, 0)
        return math.log(1.0 + self.doc_count / df) if df else 0.0

    def query_weights(
        self, query: AnalyzedResource, alpha: float
    ) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
        """Per-query ``(term, irf^p)`` / ``(uri, eirf^p)`` lists —
        the same expression :meth:`SegmentedIndex._query_weights` forms
        from its per-source df sums."""
        exponent = self.idf_exponent
        terms: list[tuple[str, float]] = []
        if alpha > 0.0:
            tw_cache = self._tw_cache
            for term in query.term_counts:
                weight = tw_cache.get(term)
                if weight is None:
                    weight = tw_cache[term] = self.irf(term) ** exponent
                if weight:
                    terms.append((term, weight))
        entities: list[tuple[str, float]] = []
        if alpha < 1.0:
            ew_cache = self._ew_cache
            for uri in query.entity_counts:
                weight = ew_cache.get(uri)
                if weight is None:
                    weight = ew_cache[uri] = self.eirf(uri) ** exponent
                if weight:
                    entities.append((uri, weight))
        return terms, entities

    def term_df_items(self) -> list[tuple[str, int]]:
        """``(term, df)`` pairs in table order (snapshot serialization)."""
        return list(self._term_df.items())

    def entity_df_items(self) -> list[tuple[str, int]]:
        return list(self._entity_df.items())

    def __getstate__(self) -> tuple[Any, ...]:
        return (
            self.idf_exponent,
            self.doc_count,
            self._term_df,
            self._entity_df,
        )

    def __setstate__(self, state: tuple[Any, ...]) -> None:
        self.idf_exponent, self.doc_count, self._term_df, self._entity_df = state
        self._tw_cache = {}
        self._ew_cache = {}


class ShardIndex(SegmentedIndex):
    """One candidate shard: segments + buffer over the shard's resources,
    scored with the shared :class:`GlobalStatistics` instead of its own
    per-source df sums. Inherits the full segment machinery — columnar
    compile, block-max metadata, seal/compaction — unchanged."""

    #: the shared union statistics (attached by the factory methods)
    _global: GlobalStatistics | None = None
    #: this shard's candidate ids (attached by the factory methods)
    candidates: frozenset[str] = frozenset()

    @classmethod
    def build(
        cls,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        evidence_of: Mapping[str, _Rows],
        config: FinderConfig,
        stats: GlobalStatistics,
        candidates: Iterable[str],
        **kwargs: Any,
    ) -> "ShardIndex":
        shard = cls.from_built(term_index, entity_index, evidence_of, config, **kwargs)
        shard._global = stats
        shard.candidates = frozenset(candidates)
        return shard

    def _query_weights(
        self, query: AnalyzedResource, alpha: float
    ) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
        stats = self._global
        if stats is None:
            raise RuntimeError("shard has no attached global statistics")
        return stats.query_weights(query, alpha)

    def shard_entries(
        self,
        query: AnalyzedResource,
        alpha: float,
        *,
        cut: int | None = None,
        pruned: bool = False,
        stats: PruningStats | None = None,
        shared_floor: Any = None,
    ) -> list[tuple[float, str]]:
        """The scatter payload: ``(-score, doc_id)`` pairs for this
        shard's share of the window, unsorted.

        ``cut=None`` returns *every* positive match (exact for any
        window shape once the coordinator has all shards' entries). A
        positive int returns at most the shard's local top-``cut`` —
        exhaustively scored, or with ``pruned=True`` by the block-max
        walk; any doc it drops ranks below ``cut`` others inside the
        shard, so the coordinator's merge stays exact. Evidence rows
        are *not* shipped — the coordinator folds from its own full
        rows.
        """
        if stats is None:
            stats = self.pruning_stats
        entries = self._collect(query, alpha, cut, pruned, stats, shared_floor)
        return [(neg_score, doc_id) for neg_score, doc_id, _rows in entries]


@dataclass(frozen=True)
class ShardedStats:
    """Gauges of one :class:`ShardedIndex` (a point-in-time snapshot)."""

    #: shard count K
    shards: int
    #: indexed documents per shard (duplicates counted per shard)
    shard_docs: tuple[int, ...]
    #: unique indexed documents (the union N)
    documents: int
    #: unique admitted resources, including evidence-only ones
    resources: int
    #: whether a scatter pool is currently attached
    executor_alive: bool


class ShardedIndex:
    """Coordinator over K candidate shards: partition → scatter → exact
    merge. Use :meth:`from_built` to shard a cold build; the snapshot
    layer reassembles loaded shards through the bare constructor."""

    def __init__(
        self,
        config: FinderConfig,
        shards: Sequence[ShardIndex],
        statistics: GlobalStatistics,
        evidence_of: Mapping[str, Sequence[tuple[str, int]]],
        partition: Sequence[Sequence[str]],
    ):
        if len(shards) != len(partition):
            raise ValueError(
                f"{len(shards)} shards but {len(partition)} partition groups"
            )
        if not shards:
            raise ValueError("a sharded index needs at least one shard")
        self._config = config
        self._shards = list(shards)
        self._statistics = statistics
        # shared by reference with the owning finder: observe() keeps one
        # rows table that both the finder and this fold read
        self._evidence = evidence_of
        self._partition = [tuple(group) for group in partition]
        self._cand_shard: dict[str, int] = {}
        for k, group in enumerate(self._partition):
            for candidate_id in group:
                if candidate_id in self._cand_shard:
                    raise ValueError(
                        f"candidate {candidate_id!r} assigned to two shards"
                    )
                self._cand_shard[candidate_id] = k
        self._weight_of = distance_weight_table(
            config.max_distance, config.weight_interval
        )
        self._normalize = config.normalize
        self.pruning_stats = PruningStats()
        self._executor: ShardedQueryExecutor | None = None
        self._shard_openers: list | None = None
        # observes admitted after a snapshot load but before (or between)
        # executor runs — workers re-open the on-disk state, so the
        # coordinator replays this log to bring them level (in-memory
        # builds fork the live shards and need no replay)
        self._pending_observes: list[tuple[AnalyzedResource, _Rows, bool]] = []

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_built(
        cls,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        evidence_of: Mapping[str, Sequence[tuple[str, int]]],
        candidates: Iterable[str],
        config: FinderConfig,
        *,
        shards: int,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        compaction: str = "synchronous",
        fanout: int = DEFAULT_FANOUT,
        block_span: int | None = None,
    ) -> "ShardedIndex":
        """Partition a cold build into K shard indexes.

        Every indexed document must be evidence for at least one
        candidate — a doc with no supporters would land in no shard and
        silently vanish from rankings, so it is rejected loudly here.
        """
        partition = partition_candidates(candidates, shards)
        cand_shard = {
            cid: k for k, group in enumerate(partition) for cid in group
        }
        evidence = {
            doc_id: tuple((cid, distance) for cid, distance in rows)
            for doc_id, rows in evidence_of.items()
        }
        # which shards own each resource (duplicated when supporters span
        # shards); validated against the partition as we go
        shard_docs: list[set[str]] = [set() for _ in partition]
        shard_rows: list[dict[str, _Rows]] = [{} for _ in partition]
        for doc_id, rows in evidence.items():
            for candidate_id, _distance in rows:
                owner = cand_shard.get(candidate_id)
                if owner is None:
                    raise ValueError(
                        f"resource {doc_id!r} supports unknown candidate "
                        f"{candidate_id!r}"
                    )
            for k in range(len(partition)):
                restricted = tuple(
                    (cid, d) for cid, d in rows if cand_shard[cid] == k
                )
                if restricted:
                    shard_docs[k].add(doc_id)
                    shard_rows[k][doc_id] = restricted
        indexed_ids = term_index.doc_ids()
        # sorted so the reported unsupported resource is the same on
        # every run (doc_ids() is a frozenset)
        for doc_id in sorted(indexed_ids):
            if not evidence.get(doc_id):
                raise ValueError(
                    f"indexed resource {doc_id!r} has no supporters; "
                    "candidate sharding requires every indexed document "
                    "to be evidence for at least one candidate"
                )
        statistics = GlobalStatistics.from_indexes(
            term_index, entity_index, config.idf_exponent
        )
        shard_objs = []
        for k, group in enumerate(partition):
            docs = shard_docs[k]
            indexed = docs & indexed_ids
            shard_objs.append(
                ShardIndex.build(
                    _restrict_index(InvertedIndex, term_index, indexed),
                    _restrict_index(EntityIndex, entity_index, indexed),
                    shard_rows[k],
                    config,
                    statistics,
                    group,
                    seal_threshold=seal_threshold,
                    compaction=compaction,
                    fanout=fanout,
                    block_span=block_span,
                )
            )
        return cls(config, shard_objs, statistics, evidence_of, partition)

    # -- writes --------------------------------------------------------------------

    def add(
        self,
        analyzed: AnalyzedResource,
        supporters: Sequence[tuple[str, int]],
        *,
        index: bool = True,
    ) -> None:
        """Admit one streamed resource: update the union statistics, then
        route the restricted evidence rows to every shard owning at
        least one supporter (each shard's write buffer absorbs it like
        any segmented observe). With an active scatter pool the observe
        is also broadcast so worker shard copies stay in lockstep."""
        rows = tuple((cid, distance) for cid, distance in supporters)
        if not rows:
            raise ValueError("a resource must support at least one candidate")
        cand_shard = self._cand_shard
        for candidate_id, distance in rows:
            if candidate_id not in cand_shard:
                raise ValueError(f"unknown candidate {candidate_id!r}")
            if self._weight_of.get(distance) is None:
                raise ValueError(
                    f"distance {distance} outside 0..{self._config.max_distance}"
                )
        doc_id = analyzed.doc_id
        if doc_id in self._evidence:
            raise ValueError(f"resource {doc_id!r} already admitted")
        if index:
            self._statistics.add_document(analyzed)
        for k, shard in enumerate(self._shards):
            restricted = tuple(
                (cid, d) for cid, d in rows if cand_shard[cid] == k
            )
            if restricted:
                shard.add(analyzed, restricted, index=index)
        self._evidence[doc_id] = list(rows)
        if self._shard_openers is not None:
            self._pending_observes.append((analyzed, rows, index))
        if self._executor is not None:
            self._executor.observe(analyzed, rows, index)

    # -- query evaluation ----------------------------------------------------------

    def find_experts(
        self,
        query: AnalyzedResource,
        *,
        alpha: float,
        window: int | float | None,
        top_k: int | None = None,
        pruned: bool = False,
        stats: PruningStats | None = None,
    ) -> list[ExpertScore]:
        """Scatter *query* to every shard, merge exactly, fold Eq. 3 —
        byte-identical to the single-index path at the same collection
        state. An absolute window is cut per shard (and with
        ``pruned=True`` scattered in the block-max mode, sharing one
        floor across workers); fractional and ``None`` windows take the
        exhaustive scatter, counted as fallbacks exactly like the
        segmented path."""
        if stats is None:
            stats = self.pruning_stats
        cut, pruned = plan_query(alpha, window, pruned, stats)
        entries = self._scatter(query, alpha, cut, pruned, stats)
        return self._merge(entries, window, top_k)

    def find_experts_many(
        self,
        queries: Sequence[AnalyzedResource],
        *,
        alpha: float,
        window: int | float | None,
        top_k: int | None = None,
        pruned: bool = False,
        stats: PruningStats | None = None,
    ) -> list[list[ExpertScore]]:
        """Batch counterpart of :meth:`find_experts`: with an active
        executor the queries are pipelined through the worker pool
        (:meth:`ShardedQueryExecutor.scatter_many`), overlapping the
        coordinator's merge/fold of one query with the workers' scoring
        of the next; results are identical to a serial loop."""
        if stats is None:
            stats = self.pruning_stats
        cut, pruned = plan_query(alpha, window, pruned, stats, len(queries))
        executor = self._executor
        if executor is not None and len(queries) > 1:
            batches = executor.scatter_many(
                [(query, alpha, cut, pruned) for query in queries], stats
            )
        else:
            batches = [
                self._scatter(query, alpha, cut, pruned, stats) for query in queries
            ]
        return [self._merge(entries, window, top_k) for entries in batches]

    def _scatter(
        self,
        query: AnalyzedResource,
        alpha: float,
        cut: int | None,
        pruned: bool,
        stats: PruningStats,
    ) -> list[tuple[float, str]]:
        executor = self._executor
        if executor is not None:
            return executor.scatter(query, alpha, cut, pruned, stats)
        entries: list[tuple[float, str]] = []
        for shard in self._shards:
            entries.extend(
                shard.shard_entries(
                    query, alpha, cut=cut, pruned=pruned, stats=stats
                )
            )
        return entries

    def _merge(
        self,
        entries: list[tuple[float, str]],
        window: int | float | None,
        top_k: int | None,
    ) -> list[ExpertScore]:
        # duplicated docs arrive as identical tuples (same union
        # statistics, same accumulation order) — keep the first
        seen: set[str] = set()
        merged: list[tuple[float, str]] = []
        keep = merged.append
        for item in entries:
            doc_id = item[1]
            if doc_id not in seen:
                seen.add(doc_id)
                keep(item)
        merged.sort()
        del merged[window_size(window, len(merged)):]
        # Eq. 3 fold over the coordinator's *full* evidence rows, in rank
        # order (each shard only holds the rows of its own candidates)
        evidence = self._evidence
        return fold_experts(
            [
                (neg_score, doc_id, evidence.get(doc_id, ()))
                for neg_score, doc_id in merged
            ],
            self._weight_of,
            self._normalize,
            top_k,
        )

    # -- the scatter pool ----------------------------------------------------------

    def start_executor(
        self, *, timeout: float = DEFAULT_WORKER_TIMEOUT
    ) -> "ShardedQueryExecutor":
        """Fork the persistent worker pool (idempotent). Snapshot-loaded
        indexes fork *openers* — each worker maps its shard's section
        file read-only inside the child, sharing the page cache; builds
        fork the in-memory shards copy-on-write."""
        if self._executor is None:
            sources = self._shard_openers or self._shards
            self._executor = ShardedQueryExecutor(sources, timeout=timeout)
            # snapshot-opened workers start from the on-disk state; catch
            # them up on everything admitted since the load
            for analyzed, rows, index in self._pending_observes:
                self._executor.observe(analyzed, rows, index)
        return self._executor

    def stop_executor(self) -> None:
        """Shut the worker pool down (idempotent)."""
        executor = self._executor
        if executor is not None:
            self._executor = None
            executor.close()

    @property
    def executor(self) -> "ShardedQueryExecutor | None":
        return self._executor

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop_executor()

    # -- introspection -------------------------------------------------------------

    @property
    def config(self) -> FinderConfig:
        return self._config

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def statistics(self) -> GlobalStatistics:
        return self._statistics

    @property
    def document_count(self) -> int:
        """Unique indexed documents — the N of every irf/eirf ratio."""
        return self._statistics.doc_count

    @property
    def partition(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._partition)

    def iter_shards(self) -> tuple[ShardIndex, ...]:
        return tuple(self._shards)

    @property
    def stats(self) -> ShardedStats:
        return ShardedStats(
            shards=len(self._shards),
            shard_docs=tuple(s.document_count for s in self._shards),
            documents=self._statistics.doc_count,
            resources=len(self._evidence),
            executor_alive=self._executor is not None,
        )


def _restrict_index(cls: type[Any], index: Any, doc_ids: set[str]) -> Any:
    """A new ``cls`` index holding only *doc_ids*' postings, in the
    original postings order (a filtered subsequence — per-document float
    accumulation is order-independent across documents, so restricted
    scores repeat the unsharded products exactly)."""
    postings = {}
    for key, plist in index.items():
        kept = [p for p in plist if p.doc_id in doc_ids]
        if kept:
            postings[key] = kept
    return cls.restore(doc_ids, postings)


def _worker_main(conn: Any, source: Any, shared_floor: Any) -> None:
    """Scatter-pool worker loop: open (or adopt) one shard, then serve
    query/observe/stop requests over the pipe until told to stop.

    Replies are ``("ok", entries, blocks_scanned, blocks_skipped)`` or
    ``("error", message, 0, 0)`` — never silence, so the coordinator can
    distinguish a failed request from a dead worker.
    """
    try:
        shard = source() if callable(source) else source
        stats = PruningStats()
        while True:
            request = conn.recv()
            op = request[0]
            if op == "stop":
                return
            try:
                if op == "query":
                    _op, query, alpha, cut, pruned, share = request
                    stats.reset()
                    entries = shard.shard_entries(
                        query,
                        alpha,
                        cut=cut,
                        pruned=pruned,
                        stats=stats,
                        shared_floor=shared_floor if share else None,
                    )
                    conn.send(
                        ("ok", entries, stats.blocks_scanned, stats.blocks_skipped)
                    )
                elif op == "observe":
                    _op, analyzed, rows, index = request
                    if index:
                        shard._global.add_document(analyzed)
                    restricted = tuple(
                        (cid, d) for cid, d in rows if cid in shard.candidates
                    )
                    if restricted:
                        shard.add(analyzed, restricted, index=index)
                    conn.send(("ok", None, 0, 0))
                else:
                    conn.send(("error", f"unknown request {op!r}", 0, 0))
            except Exception as exc:  # keep serving after a bad request
                conn.send(("error", f"{type(exc).__name__}: {exc}", 0, 0))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # coordinator went away; nothing to report to


class ShardedQueryExecutor:
    """Persistent fork-based process pool, one worker per shard.

    Requires the ``fork`` start method: in-memory shards must be
    inherited copy-on-write (pickling a compiled shard would defeat the
    point), and the shared pruning floor is pre-fork state. Workers are
    daemons; a crashed worker surfaces as a ``RuntimeError`` on the next
    scatter, never a hang (`timeout` bounds a wedged-but-alive worker).
    """

    def __init__(
        self,
        sources: Sequence,
        *,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
    ):
        if not sources:
            raise ValueError("executor needs at least one shard source")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "sharded query execution needs the 'fork' start method, "
                "which this platform does not provide"
            )
        ctx = multiprocessing.get_context("fork")
        self._timeout = timeout
        self._floor = ctx.Value("d", 0.0)
        self._conns = []
        self._procs = []
        #: mean in-flight depth of the last scatter_many (the service's
        #: batch_parallelism gauge reads this)
        self.last_batch_depth = 0.0
        for k, source in enumerate(sources):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, source, self._floor),
                name=f"shard-worker-{k}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    @property
    def worker_count(self) -> int:
        return len(self._procs)

    @property
    def pids(self) -> tuple[int, ...]:
        return tuple(proc.pid for proc in self._procs)

    def scatter(
        self,
        query: AnalyzedResource,
        alpha: float,
        cut: int | None,
        pruned: bool,
        stats: PruningStats | None = None,
    ) -> list[tuple[float, str]]:
        """One query to all workers; concatenated entries back. Pruned
        scatters share the floor, which is reset here — a query's floor
        must start from zero."""
        if pruned:
            with self._floor.get_lock():
                self._floor.value = 0.0
        self._broadcast(("query", query, alpha, cut, pruned, pruned))
        entries: list[tuple[float, str]] = []
        for k in range(len(self._conns)):
            reply = self._recv(k)
            entries.extend(reply[1])
            if stats is not None:
                stats.blocks_scanned += reply[2]
                stats.blocks_skipped += reply[3]
        return entries

    def scatter_many(
        self,
        requests: Sequence[tuple[AnalyzedResource, float, int | None, bool]],
        stats: PruningStats | None = None,
    ) -> list[list[tuple[float, str]]]:
        """Pipeline a batch: up to ``DEFAULT_BATCH_INFLIGHT`` queries are
        in flight per worker, replies are collected in order (pipes are
        FIFO and each worker serves requests in order). The shared floor
        cannot be reset per query mid-pipeline, so batched pruned
        queries run with their workers' *local* floors only — still
        exact, marginally less skipping."""
        results: list[list[tuple[float, str]]] = []
        n = len(requests)
        sent = 0
        depth_total = 0
        while len(results) < n:
            while sent < n and sent - len(results) < DEFAULT_BATCH_INFLIGHT:
                query, alpha, cut, pruned = requests[sent]
                self._broadcast(("query", query, alpha, cut, pruned, False))
                sent += 1
            depth_total += sent - len(results)
            entries: list[tuple[float, str]] = []
            for k in range(len(self._conns)):
                reply = self._recv(k)
                entries.extend(reply[1])
                if stats is not None:
                    stats.blocks_scanned += reply[2]
                    stats.blocks_skipped += reply[3]
            results.append(entries)
        self.last_batch_depth = depth_total / n if n else 0.0
        return results

    def observe(
        self, analyzed: AnalyzedResource, rows: _Rows, index: bool
    ) -> None:
        """Broadcast one admitted resource so worker shard copies (and
        their statistics) stay identical to the coordinator's."""
        self._broadcast(("observe", analyzed, rows, index))
        for k in range(len(self._conns)):
            self._recv(k)

    def _broadcast(self, request: tuple[Any, ...]) -> None:
        for k, conn in enumerate(self._conns):
            try:
                conn.send(request)
            except (BrokenPipeError, OSError) as exc:
                raise RuntimeError(
                    f"shard worker {k} (pid {self._procs[k].pid}) is gone: "
                    f"{exc}"
                ) from exc

    def _recv(self, k: int) -> tuple[Any, ...]:
        conn = self._conns[k]
        proc = self._procs[k]
        deadline = time.monotonic() + self._timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise RuntimeError(
                    f"shard worker {k} (pid {proc.pid}) died with exit code "
                    f"{proc.exitcode}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard worker {k} (pid {proc.pid}) gave no reply "
                    f"within {self._timeout:.0f}s"
                )
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"shard worker {k} (pid {proc.pid}) died mid-reply"
            ) from exc
        if reply[0] == "error":
            raise RuntimeError(f"shard worker {k} failed: {reply[1]}")
        return reply

    def close(self) -> None:
        """Stop all workers (idempotent, tolerant of already-dead ones)."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
