"""The segmented index: the one query path for Eq. 1 → window → Eq. 3.

Every finder layout is a :class:`SegmentedIndex` (cf. production
expert-mining systems, which absorb half a billion streamed signals this
way — Spasojevic et al.): a cold build is one sealed segment plus an
empty write buffer, and a candidate-sharded finder is K of them (see
:mod:`repro.index.sharded`). The pieces:

* **write buffer** — streamed resources (Eq. 1 term/entity postings plus
  Eq. 3 evidence rows) land in a small mutable :class:`_WriteBuffer`,
  scored with plain dict walks; an ``observe`` touches nothing else;
* **sealed segments** — when the buffer reaches ``seal_threshold``
  resources it seals into an immutable :class:`Segment` whose postings
  are compiled once into flat doc-sorted columns (interned doc indexes
  in sorted-id order, raw ``tf`` / ``ef`` / ``we`` columns) and never
  touched again;
* **tiered compaction** — segments of the same size tier are merged
  (reusing :meth:`InvertedIndex.merge` / :meth:`EntityIndex.merge`, which
  preserve postings order) either synchronously after a seal, from a
  background thread, or only on explicit :meth:`SegmentedIndex.compact`.

A query forms its per-item weights ``tw = irf^p`` / ``ew = eirf^p`` once
from **shared collection statistics** (the union document count and the
summed per-source document frequencies), then each segment scores its
own documents: the per-column products ``tf·tw`` and ``(ef·ew)·we`` are
memoised per weight in the lazily built column records, accumulated
document-at-a-time into flat scratch lists, combined as
``α·T + (1−α)·E`` and emitted as ``(-score, doc index)``. With an
absolute window each segment sorts and cuts its own matches to the
window (or, pruned, keeps a window-sized heap over block-max ordered
blocks); string ids and evidence rows are looked up for the survivors
only. One global ``(-score, doc_id)`` sort and window cut follows, then
the Eq. 3 fold (:func:`fold_experts`).

The per-segment cut is exact: each document lives in exactly one source
and, within a segment, doc-index order is doc-id order, so the global
top-W is contained in the union of the per-source top-W. Scores repeat
the object path's float operations in the same order, so rankings are
**byte-identical** to :class:`~repro.index.vsm.VectorSpaceRetriever` +
:class:`~repro.core.ranking.ExpertRanker` over the same collection
(``tests/core/test_streaming.py`` and ``tests/index/test_columnar.py``
pin this).

Thread model: one thread queries and writes; only compaction may run on
a background thread. The live-segment list is swapped immutably under a
lock, so a query holds a consistent snapshot while the compactor
replaces merged runs; sealed segments are never mutated.
"""

from __future__ import annotations

import heapq
import math
import threading
from array import array
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any
from dataclasses import dataclass

# Direct submodule imports only — ``repro.index`` is imported by
# ``repro.core``, so pulling core *package* attributes here would cycle.
from repro.core.config import FinderConfig
from repro.core.ranking import ExpertScore
from repro.core.scoring import distance_weight_table, window_size
from repro.index.analyzer import AnalyzedResource
from repro.index.blockmax import (
    DEFAULT_BLOCK_SPAN,
    PruningStats,
    compute_blocks,
    is_doc_sorted,
    sort_column,
    ub_slack,
)
from repro.index.entity_index import EntityIndex
from repro.index.inverted import InvertedIndex
from repro.index.vsm import entity_weight

#: default buffer size (in resources) at which the buffer seals
DEFAULT_SEAL_THRESHOLD = 256

#: default tier fanout: a run of this many same-tier segments is merged
DEFAULT_FANOUT = 4

_COMPACTION_MODES = ("synchronous", "background", "manual")

#: blocks between shared-floor lock round-trips in a pruned walk (see
#: :meth:`Segment.score_pruned`)
_FLOOR_STRIDE = 32

#: evidence rows: ``((candidate_id, distance), ...)`` in stream order
_Rows = tuple[tuple[str, int], ...]

#: one scored match: ``(-score, doc_id, evidence rows)``
_Entry = tuple[float, str, _Rows]


def plan_query(
    alpha: float,
    window: int | float | None,
    pruned: bool,
    stats: PruningStats,
    count: int = 1,
) -> tuple[int | None, bool]:
    """Validate a query's parameters and route it: returns ``(cut,
    pruned)``, where *cut* is the absolute window each source may cut
    its own matches to (None for fractional and ``None`` windows, whose
    width depends on the total match count) and *pruned* says whether
    the block-max walk runs. Pruned requests that cannot prune are
    counted as fallbacks in *stats*."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    window_size(window, 0)  # validate the window shape up front
    # bools are rejected above, so a remaining int is a positive count
    cut = window if isinstance(window, int) else None
    if pruned:
        if cut is None:
            stats.fallback_queries += count
            return None, False
        stats.pruned_queries += count
    return cut, pruned


def fold_experts(
    entries: Iterable[tuple[float, str, Iterable[tuple[str, int]]]],
    weight_of: Mapping[int, float],
    normalize: bool,
    top_k: int | None,
) -> list[ExpertScore]:
    """Eq. 3 over windowed matches in rank order, mirroring
    :meth:`~repro.core.ranking.ExpertRanker.rank` float for float: each
    candidate accumulates ``score · wr`` in match order, positive totals
    are ranked on ``(-score, candidate_id)``, and only the *top_k*
    survivors become :class:`ExpertScore` objects."""
    scores: dict[str, float] = {}
    support: dict[str, int] = {}
    for neg_score, _doc_id, rows in entries:
        match_score = -neg_score
        for candidate_id, distance in rows:
            scores[candidate_id] = (
                scores.get(candidate_id, 0.0) + match_score * weight_of[distance]
            )
            support[candidate_id] = support.get(candidate_id, 0) + 1
    ranked: list[tuple[float, str, int]] = []
    rank = ranked.append
    for candidate_id, score in scores.items():
        count = support[candidate_id]
        if normalize:
            score = score / count
        if score > 0.0:
            rank((-score, candidate_id, count))
    ranked.sort()
    if top_k is not None:
        del ranked[top_k:]
    return [ExpertScore(cid, -neg_score, count) for neg_score, cid, count in ranked]


def _pair_weight(pair: tuple[int, float]) -> float:
    return pair[1]


def _agenda(docs: Sequence[int], weighted: Sequence[float], blocks: tuple) -> tuple:
    """The pruned-mode record of one weighted column: ``(block id,
    weighted block max)`` pairs, a block id → span map, and an empty
    per-α cache of leg-scaled bounds.

    Spans are kept weight-descending: multi-item accumulation is
    order-insensitive (flags dedup in any order), and a single-item
    block can stop at the first posting below the heap floor
    (multiplication rounding is monotone, so every later posting scores
    no higher). The block maximum is the span's first weight — the
    exact weighted value, so entity bounds need no ``ef·we`` rescaling.
    """
    bids, boff, _raw_max = blocks
    # the weights pass through a fresh array so every span's (doc, w)
    # pairs and their float objects are allocated together — the walk
    # reads them block by block
    pairs = list(zip(docs, array("d", weighted)))
    bounds = []
    spans = {}
    for i, b in enumerate(bids):
        span = sorted(pairs[boff[i] : boff[i + 1]], key=_pair_weight, reverse=True)
        spans[b] = span
        bounds.append((b, span[0][1]))
    return bounds, spans, {}


@dataclass(frozen=True)
class SegmentStats:
    """Gauges of one :class:`SegmentedIndex` (a point-in-time snapshot)."""

    #: number of live sealed segments
    segments: int
    #: indexed documents per live segment, in segment order
    segment_docs: tuple[int, ...]
    #: resources currently in the write buffer (indexed or evidence-only)
    buffered: int
    #: indexed documents across all segments plus the buffer
    documents: int
    #: all resources ever admitted (indexed + evidence-only)
    resources: int
    #: buffer seals performed
    seals: int
    #: compaction merges performed
    compactions: int


class Segment:
    """One immutable, columnar-compiled slice of the collection.

    Holds the slice's term/entity indexes (for union statistics, merges,
    and snapshots) plus compiled flat columns for query evaluation:
    interned doc indexes, sorted by doc, with *raw* frequencies — the
    collection statistics keep moving as the buffer grows, so
    ``tf·irf^p`` / ``ef·eirf^p·we`` are formed per query weight (the
    identical float operations, deferred) and memoised in the column
    records until the weight changes.
    """

    __slots__ = (
        "segment_id",
        "evidence",
        "_term_index",
        "_entity_index",
        "_hydrate",
        "_doc_ids",
        "_term_cols",
        "_entity_cols",
        "_resource_ids",
        "_term_acc",
        "_entity_acc",
        "_doc_flags",
        "_block_ub",
        "_block_flags",
        "_block_span",
        "_term_blocks",
        "_entity_blocks",
        "_term_pruned",
        "_entity_pruned",
    )

    def __init__(
        self,
        segment_id: int,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        evidence: Mapping[str, _Rows],
        *,
        block_span: int | None = None,
    ):
        if term_index.doc_ids() != entity_index.doc_ids():
            raise ValueError(
                "term and entity indexes disagree on the segment's doc ids "
                f"({term_index.document_count} vs {entity_index.document_count})"
            )
        self.segment_id = segment_id
        self._term_index: InvertedIndex | None = term_index
        self._entity_index: EntityIndex | None = entity_index
        self._hydrate = None
        self.evidence = dict(evidence)
        self._resource_ids = frozenset(self.evidence) | term_index.doc_ids()

        # compile: dense doc indexes in sorted-id order + doc-sorted
        # raw-frequency columns (the d_score is folded to we = 1 + dScore
        # once; the posting product at query time is ef · ew · we, the
        # object path's expression)
        doc_ids = sorted(term_index.doc_ids())
        doc_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        self._doc_ids: list[str] = doc_ids
        self._term_cols: dict[str, tuple] = {}
        for term, postings in term_index.items():
            rows = sorted((doc_of[p.doc_id], p.term_frequency) for p in postings)
            self._term_cols[term] = (
                array("l", [d for d, _ in rows]),
                array("l", [f for _, f in rows]),
            )
        self._entity_cols: dict[str, tuple] = {}
        for uri, postings in entity_index.items():
            erows = sorted(
                (doc_of[p.doc_id], p.entity_frequency, entity_weight(p.d_score))
                for p in postings
            )
            self._entity_cols[uri] = (
                array("l", [d for d, _, _ in erows]),
                array("l", [f for _, f, _ in erows]),
                array("d", [w for _, _, w in erows]),
            )
        self._init_blocks(block_span)
        self._init_scratch()

    @classmethod
    def from_columns(
        cls,
        segment_id: int,
        doc_ids: Sequence[str],
        term_cols: Mapping[str, tuple],
        entity_cols: Mapping[str, tuple],
        evidence: Mapping[str, _Rows],
        hydrate: "Callable[[], tuple[InvertedIndex, EntityIndex]] | None",
        *,
        block_span: int | None = None,
        term_blocks: Mapping[str, tuple] | None = None,
        entity_blocks: Mapping[str, tuple] | None = None,
    ) -> "Segment":
        """Adopt already-compiled columns (a v3 snapshot's mapped buffers)
        without building the posting-object indexes.

        *doc_ids* must be the segment's indexed doc ids in sorted order
        (the interning order the columns were compiled under); column
        values may be ``array``s or zero-copy ``memoryview`` casts.
        *hydrate* is a zero-argument callable returning the
        ``(InvertedIndex, EntityIndex)`` pair — invoked at most once, only
        if a merge, snapshot re-save or the object path actually needs
        posting objects. *term_blocks*/*entity_blocks* adopt per-column
        ``(bids, boff, bmax)`` block metadata written by a v3+blocks
        snapshot (whose columns are doc-sorted); when absent, pruning
        sorts the column and recomputes it on first use — the
        recompute-on-absent compatibility rule.
        """
        segment = cls.__new__(cls)
        segment.segment_id = segment_id
        segment._term_index = None
        segment._entity_index = None
        segment._hydrate = hydrate
        segment.evidence = dict(evidence)
        segment._doc_ids = list(doc_ids)
        segment._resource_ids = frozenset(segment.evidence) | frozenset(
            segment._doc_ids
        )
        segment._term_cols = dict(term_cols)
        segment._entity_cols = dict(entity_cols)
        segment._init_blocks(block_span)
        if term_blocks:
            segment._term_blocks.update(term_blocks)
        if entity_blocks:
            segment._entity_blocks.update(entity_blocks)
        segment._init_scratch()
        return segment

    def _init_blocks(self, block_span: int | None) -> None:
        if block_span is not None and block_span <= 0:
            raise ValueError(f"block_span must be positive, got {block_span}")
        self._block_span = block_span or DEFAULT_BLOCK_SPAN
        #: per-column ``(bids, boff, bmax)`` over the doc-sorted columns;
        #: the maxima are raw (``tf``, ``ef·we``) — the snapshot format's
        #: shape — and pruning bounds come from the weighted spans
        self._term_blocks: dict[str, tuple] = {}
        self._entity_blocks: dict[str, tuple] = {}
        #: lazily built per-column records keyed by the exact query
        #: weight: ``[weight, docs, weighted values, agenda or None]``
        self._term_pruned: dict[str, list] = {}
        self._entity_pruned: dict[str, list] = {}

    def _init_scratch(self) -> None:
        # scratch accumulators are plain lists: element access on a list
        # returns the stored float object directly, where array('d')
        # would box a fresh one per read (reset per query via the
        # touched lists)
        n_docs = len(self._doc_ids)
        n_blocks = (n_docs + self._block_span - 1) // self._block_span or 1
        self._term_acc = [0.0] * n_docs
        self._entity_acc = [0.0] * n_docs
        self._doc_flags = bytearray(n_docs)
        self._block_ub = [0.0] * n_blocks
        self._block_flags = bytearray(n_blocks)

    @property
    def term_index(self) -> InvertedIndex:
        """The posting-object term index, hydrating it on first use for
        column-restored segments (merges, jsonl re-saves and the object
        path need it; query evaluation and statistics never do)."""
        if self._term_index is None:
            self._run_hydrate()
        return self._term_index

    @property
    def entity_index(self) -> EntityIndex:
        if self._entity_index is None:
            self._run_hydrate()
        return self._entity_index

    def _run_hydrate(self) -> None:
        hydrate = self._hydrate
        if hydrate is None:
            raise RuntimeError(
                f"segment {self.segment_id} has no hydrator for its indexes"
            )
        self._hydrate = None
        self._term_index, self._entity_index = hydrate()

    def term_df(self, term: str) -> int:
        """Documents of this segment containing *term* — served from the
        compiled column lengths, never hydrating."""
        cols = self._term_cols.get(term)
        return len(cols[0]) if cols is not None else 0

    def entity_df(self, entity_uri: str) -> int:
        """Documents of this segment annotated with *entity_uri*."""
        cols = self._entity_cols.get(entity_uri)
        return len(cols[0]) if cols is not None else 0

    @property
    def block_span(self) -> int:
        return self._block_span

    @property
    def document_count(self) -> int:
        return len(self._doc_ids)

    @property
    def resource_count(self) -> int:
        return len(self._resource_ids)

    @property
    def resource_ids(self) -> frozenset[str]:
        return self._resource_ids

    # -- per-column records (the weighted memo + block-max agenda) -----------------

    def _pruned_term(self, term: str, tw: float, pruned: bool = False) -> list | None:
        """The term column's record for weight *tw*: ``tf·tw`` for every
        posting, rebuilt only when the weight changes (a sealed segment's
        frequencies never do). With *pruned*, the record also carries
        the block-max agenda; columns restored without block metadata
        are doc-sorted and blocked here first."""
        rec = self._term_pruned.get(term)
        if rec is None or rec[0] != tw:
            cols = self._term_cols.get(term)
            if cols is None:
                return None
            docs, tf = cols
            rec = [tw, docs, [f * tw for f in tf], None]
            self._term_pruned[term] = rec
        if pruned and rec[3] is None:
            blk = self._term_blocks.get(term)
            if blk is None:
                docs, tf = self._term_cols[term]
                if not is_doc_sorted(docs):
                    docs, tf = sort_column(docs, tf)
                    self._term_cols[term] = (docs, tf)
                    rec[1] = docs
                    rec[2] = [f * tw for f in tf]
                blk = compute_blocks(docs, tf, self._block_span)
                self._term_blocks[term] = blk
            rec[3] = _agenda(rec[1], rec[2], blk)
        return rec

    def _pruned_entity(self, uri: str, ew: float, pruned: bool = False) -> list | None:
        """The entity column's record for weight *ew*: ``(ef·ew)·we``
        per posting — the object path's association — memoised like
        :meth:`_pruned_term`."""
        rec = self._entity_pruned.get(uri)
        if rec is None or rec[0] != ew:
            cols = self._entity_cols.get(uri)
            if cols is None:
                return None
            docs, ef, we = cols
            rec = [ew, docs, [f * ew * w for f, w in zip(ef, we)], None]
            self._entity_pruned[uri] = rec
        if pruned and rec[3] is None:
            blk = self._entity_blocks.get(uri)
            if blk is None:
                docs, ef, we = self._entity_cols[uri]
                if not is_doc_sorted(docs):
                    docs, ef, we = sort_column(docs, ef, we)
                    self._entity_cols[uri] = (docs, ef, we)
                    rec[1] = docs
                    rec[2] = [f * ew * w for f, w in zip(ef, we)]
                raw = array("d", [f * w for f, w in zip(ef, we)])
                blk = compute_blocks(docs, raw, self._block_span)
                self._entity_blocks[uri] = blk
            rec[3] = _agenda(rec[1], rec[2], blk)
        return rec

    # -- query evaluation ----------------------------------------------------------

    def score(
        self,
        terms: Sequence[tuple[str, float]],
        entities: Sequence[tuple[str, float]],
        alpha: float,
        cut: int | None,
    ) -> list[_Entry]:
        """Every positive Eq. 1 match of this segment as ``(-score,
        doc_id, rows)``, cut to the best *cut* when given (unsorted
        otherwise). Accumulation order per document is the query's item
        order, terms before entities — the object path's order."""
        term_acc = self._term_acc
        entity_acc = self._entity_acc
        flags = self._doc_flags
        touched: list[int] = []
        touch = touched.append
        for term, tw in terms:
            rec = self._pruned_term(term, tw)
            if rec is None:
                continue
            for doc, weighted in zip(rec[1], rec[2]):
                term_acc[doc] += weighted
                if not flags[doc]:
                    flags[doc] = 1
                    touch(doc)
        for uri, ew in entities:
            rec = self._pruned_entity(uri, ew)
            if rec is None:
                continue
            for doc, weighted in zip(rec[1], rec[2]):
                entity_acc[doc] += weighted
                if not flags[doc]:
                    flags[doc] = 1
                    touch(doc)

        # combine the two legs, keep positive scores, reset the scratch
        one_minus_alpha = 1.0 - alpha
        hits: list[tuple[float, int]] = []
        hit = hits.append
        for doc in touched:
            score = alpha * term_acc[doc] + one_minus_alpha * entity_acc[doc]
            if score > 0.0:
                hit((-score, doc))
            term_acc[doc] = 0.0
            entity_acc[doc] = 0.0
            flags[doc] = 0
        # doc-index order is doc-id order within a segment, so this cut
        # keeps exactly the segment's share of the global window
        if cut is not None and cut < len(hits):
            hits.sort()
            del hits[cut:]
        return self._resolve(hits)

    def plan_pruned(
        self,
        terms: Sequence[tuple[str, float]],
        entities: Sequence[tuple[str, float]],
        alpha: float,
    ) -> tuple:
        """The block-max agenda of one query over this segment: per query
        item, the leg-scaled block maxima are summed into the per-block
        bound (the scratch ``_block_ub``) and the item's block → span
        map is collected (consulted only for processed blocks). Returns
        ``(best inflated bound, blocks best-first, term span maps,
        entity span maps, slack)`` for :meth:`score_pruned`."""
        one_minus_alpha = 1.0 - alpha
        ub = self._block_ub
        bflags = self._block_flags
        tblocks: list[int] = []
        tblock = tblocks.append
        tmaps: list[dict] = []
        emaps: list[dict] = []
        for term, tw in terms:
            rec = self._pruned_term(term, tw, True)
            if rec is None:
                continue
            bounds, smap, scaled = rec[3]
            tmaps.append(smap)
            sub = scaled.get(alpha)
            if sub is None:
                sub = scaled[alpha] = [(b, alpha * mx) for b, mx in bounds]
            for b, smx in sub:
                if bflags[b]:
                    ub[b] += smx
                else:
                    bflags[b] = 1
                    ub[b] = smx
                    tblock(b)
        for uri, ew in entities:
            rec = self._pruned_entity(uri, ew, True)
            if rec is None:
                continue
            bounds, smap, scaled = rec[3]
            emaps.append(smap)
            sub = scaled.get(one_minus_alpha)
            if sub is None:
                sub = scaled[one_minus_alpha] = [
                    (b, one_minus_alpha * mx) for b, mx in bounds
                ]
            for b, smx in sub:
                if bflags[b]:
                    ub[b] += smx
                else:
                    bflags[b] = 1
                    ub[b] = smx
                    tblock(b)
        slack = ub_slack(len(tmaps) + len(emaps))
        tblocks.sort(key=ub.__getitem__, reverse=True)
        best = ub[tblocks[0]] * slack if tblocks else 0.0
        return best, tblocks, tmaps, emaps, slack

    def score_pruned(
        self,
        plan: tuple,
        alpha: float,
        window: int,
        bar: float,
        stats: PruningStats,
        shared_floor: Any = None,
    ) -> tuple[list[_Entry], float]:
        """Block-max evaluation of this segment's top-*window* matches
        along the agenda *plan* from :meth:`plan_pruned`.

        Blocks are processed best-bound first while a min-heap of
        ``(score, -doc)`` pairs holds the segment's current window: the
        heap minimum is exactly the worst element under the window
        order ``(-score, doc)``, so the heap *is* the window set. Once
        the heap is full, a block whose inflated bound sits below the
        floor *score* — and every later block, bounds are descending —
        cannot contribute and is skipped outright.

        *bar* is a floor proven elsewhere (another segment's full
        window, the buffer's, or — via *shared_floor*, a
        ``multiprocessing.Value('d')`` — another shard worker's): some
        ``window`` distinct documents score at least *bar*, so anything
        strictly below it can never enter the global window. It is only
        ever used with a strict ``<``. Returns the surviving matches and
        this segment's floor (0.0 unless its window filled).
        """
        _best, tblocks, tmaps, emaps, slack = plan
        term_acc = self._term_acc
        entity_acc = self._entity_acc
        flags = self._doc_flags
        one_minus_alpha = 1.0 - alpha
        ub = self._block_ub
        bflags = self._block_flags
        W = window
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        heap: list[tuple[float, int]] = []
        nheap = 0
        floor = 0.0
        h0 = (0.0, 0)
        # lim: the skip threshold — the larger of the proven outside
        # floor and this segment's own floor once its window is full
        lim = bar
        if shared_floor is not None:
            lim = _sync_floor(shared_floor, 0.0, lim)
        btouched: list[int] = []
        btouch = btouched.append
        scanned = len(tblocks)
        for bi, b in enumerate(tblocks):
            if shared_floor is not None and bi and not bi % _FLOOR_STRIDE:
                lim = _sync_floor(shared_floor, floor if nheap == W else 0.0, lim)
            if ub[b] * slack < lim:
                scanned = bi
                break
            ts = []
            for m in tmaps:
                sp = m.get(b)
                if sp is not None:
                    ts.append(sp)
            es = []
            for m in emaps:
                sp = m.get(b)
                if sp is not None:
                    es.append(sp)
            if len(ts) + len(es) == 1:
                # single-item block: the combined score collapses to
                # α·w + (1−α)·0.0 == α·w (or its mirror), bit for bit —
                # and the span is weight-descending, so the first
                # posting below the threshold (or at 0.0 before the heap
                # fills) ends it
                leg, span = (alpha, ts[0]) if ts else (one_minus_alpha, es[0])
                for d, w in span:
                    sc = leg * w
                    if sc < lim:
                        break
                    if nheap == W:
                        pair = (sc, -d)
                        if pair > h0:
                            heapreplace(heap, pair)
                            h0 = heap[0]
                            floor = h0[0]
                            if floor > lim:
                                lim = floor
                    elif sc > 0.0:
                        heappush(heap, (sc, -d))
                        nheap += 1
                        if nheap == W:
                            h0 = heap[0]
                            floor = h0[0]
                            if floor > lim:
                                lim = floor
                    else:
                        break
                continue
            # multi-item block: accumulate into the per-doc scratch, then
            # finalize each touched doc. Blocks are doc-range complete —
            # every posting of a block's documents sits in this block —
            # so scores are final here. One-leg blocks skip the other
            # leg's accumulator: its slots are all zero, and
            # α·T + (1−α)·0.0 == α·T (and its mirror), bit for bit.
            for sp in ts:
                for d, w in sp:
                    term_acc[d] += w
                    if not flags[d]:
                        flags[d] = 1
                        btouch(d)
            for sp in es:
                for d, w in sp:
                    entity_acc[d] += w
                    if not flags[d]:
                        flags[d] = 1
                        btouch(d)
            for d in btouched:
                if not es:
                    sc = alpha * term_acc[d]
                    term_acc[d] = 0.0
                elif not ts:
                    sc = one_minus_alpha * entity_acc[d]
                    entity_acc[d] = 0.0
                else:
                    sc = alpha * term_acc[d] + one_minus_alpha * entity_acc[d]
                    term_acc[d] = 0.0
                    entity_acc[d] = 0.0
                flags[d] = 0
                if sc < lim:
                    continue
                if nheap < W:
                    if sc > 0.0:
                        heappush(heap, (sc, -d))
                        nheap += 1
                        if nheap == W:
                            h0 = heap[0]
                            floor = h0[0]
                            if floor > lim:
                                lim = floor
                else:
                    pair = (sc, -d)
                    if pair > h0:
                        heapreplace(heap, pair)
                        h0 = heap[0]
                        floor = h0[0]
                        if floor > lim:
                            lim = floor
            del btouched[:]
        for b in tblocks:
            bflags[b] = 0
        stats.blocks_scanned += scanned
        stats.blocks_skipped += len(tblocks) - scanned
        full = nheap == W
        if shared_floor is not None and full:
            _sync_floor(shared_floor, floor, lim)
        # the heap holds min(window, matches) docs: re-key them to the
        # (-score, doc) window order (sorted, so the global merge of a
        # lone segment is one linear pass)
        hits = [(-sc, -nd) for sc, nd in heap]
        hits.sort()
        return self._resolve(hits), floor if full else 0.0

    def _resolve(self, hits: list[tuple[float, int]]) -> list[_Entry]:
        """``(-score, doc index)`` survivors → ``(-score, doc_id, rows)``."""
        doc_ids = self._doc_ids
        evidence = self.evidence
        entries: list[_Entry] = []
        entry = entries.append
        for neg_score, doc in hits:
            doc_id = doc_ids[doc]
            entry((neg_score, doc_id, evidence.get(doc_id, ())))
        return entries


def _plan_bound(item: tuple[tuple, Segment]) -> float:
    best: float = item[0][0]
    return best


def _sync_floor(shared_floor: Any, floor: float, lim: float) -> float:
    """Publish *floor* (0.0 = nothing proven yet) to the cross-worker
    value and return the larger of *lim* and the best published floor.
    The shared value only ever rises within a query."""
    with shared_floor.get_lock():
        if floor > shared_floor.value:
            shared_floor.value = floor
        shared: float = shared_floor.value
    return shared if shared > lim else lim


class _WriteBuffer:
    """The mutable tail of the collection: plain indexes + evidence rows."""

    __slots__ = ("term_index", "entity_index", "evidence")

    def __init__(self) -> None:
        self.term_index = InvertedIndex()
        self.entity_index = EntityIndex()
        self.evidence: dict[str, _Rows] = {}

    @classmethod
    def restore(
        cls,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        evidence: Mapping[str, _Rows],
    ) -> "_WriteBuffer":
        if term_index.doc_ids() != entity_index.doc_ids():
            raise ValueError(
                "term and entity indexes disagree on the buffer's doc ids "
                f"({term_index.document_count} vs {entity_index.document_count})"
            )
        buffer = cls()
        buffer.term_index = term_index
        buffer.entity_index = entity_index
        buffer.evidence = dict(evidence)
        return buffer

    @property
    def document_count(self) -> int:
        return self.term_index.document_count

    @property
    def resource_count(self) -> int:
        return len(self.evidence)

    @property
    def resource_ids(self) -> frozenset[str]:
        return frozenset(self.evidence) | self.term_index.doc_ids()

    def add(self, analyzed: AnalyzedResource, rows: _Rows, index: bool) -> None:
        self.evidence[analyzed.doc_id] = rows
        if index:
            self.term_index.add_document(analyzed.doc_id, analyzed.term_counts)
            self.entity_index.add_document(analyzed.doc_id, analyzed.entity_counts)

    def score(
        self,
        terms: Sequence[tuple[str, float]],
        entities: Sequence[tuple[str, float]],
        alpha: float,
    ) -> list[_Entry]:
        """Dict-walk counterpart of :meth:`Segment.score` (uncut) — the
        buffer is small and changes on every observe, so it is never
        compiled."""
        term_scores: dict[str, float] = {}
        entity_scores: dict[str, float] = {}
        term_index = self.term_index
        for term, tw in terms:
            for posting in term_index.postings(term):
                doc_id = posting.doc_id
                term_scores[doc_id] = (
                    term_scores.get(doc_id, 0.0) + posting.term_frequency * tw
                )
        entity_index = self.entity_index
        for uri, ew in entities:
            for posting in entity_index.postings(uri):
                doc_id = posting.doc_id
                entity_scores[doc_id] = (
                    entity_scores.get(doc_id, 0.0)
                    + posting.entity_frequency * ew * entity_weight(posting.d_score)
                )
        one_minus_alpha = 1.0 - alpha
        evidence = self.evidence
        entries: list[_Entry] = []
        entry = entries.append
        # repro: lint-ok[determinism] emission order is scratch only —
        # SegmentedIndex merges all sources' entries and sorts with the
        # total (-score, doc_id) key before any cut
        for doc_id in term_scores.keys() | entity_scores.keys():
            score = (
                alpha * term_scores.get(doc_id, 0.0)
                + one_minus_alpha * entity_scores.get(doc_id, 0.0)
            )
            if score > 0.0:
                entry((-score, doc_id, evidence.get(doc_id, ())))
        return entries


class SegmentedIndex:
    """Sealed segments + write buffer behind one query interface.

    Construction: :meth:`from_built` wraps a cold build's indexes as the
    base segment; :meth:`restore_compiled` rebuilds from mapped snapshot
    segments; the bare constructor starts empty. ``compaction`` is one of ``"synchronous"``
    (merge inline after each seal), ``"background"`` (a daemon thread
    merges after seals; call :meth:`close` or use the index as a context
    manager to stop it), or ``"manual"`` (only explicit :meth:`compact`).
    """

    def __init__(
        self,
        config: FinderConfig,
        *,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        compaction: str = "synchronous",
        fanout: int = DEFAULT_FANOUT,
        block_span: int | None = None,
    ):
        if seal_threshold < 1:
            raise ValueError(f"seal_threshold must be >= 1, got {seal_threshold}")
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if compaction not in _COMPACTION_MODES:
            raise ValueError(
                f"compaction must be one of {_COMPACTION_MODES}, got {compaction!r}"
            )
        if block_span is not None and block_span <= 0:
            raise ValueError(f"block_span must be positive, got {block_span}")
        self._block_span = block_span or DEFAULT_BLOCK_SPAN
        self.pruning_stats = PruningStats()
        self._config = config
        self._idf_exponent = config.idf_exponent
        self._normalize = config.normalize
        self._weight_of = distance_weight_table(
            config.max_distance, config.weight_interval
        )
        self._seal_threshold = seal_threshold
        self._fanout = fanout
        self._compaction = compaction
        self._segments: list[Segment] = []  # replaced immutably under _lock
        self._buffer = _WriteBuffer()
        self._resource_ids: set[str] = set()
        self._doc_count = 0
        self._irf_cache: dict[str, float] = {}
        self._eirf_cache: dict[str, float] = {}
        self._tw_cache: dict[str, float] = {}
        self._ew_cache: dict[str, float] = {}
        self._seals = 0
        self._compactions = 0
        self._next_segment_id = 0
        self._lock = threading.Lock()  # guards _segments/_buffer swaps + ids
        self._compact_lock = threading.Lock()  # serializes compaction passes
        self._closed = False
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        if compaction == "background":
            self._thread = threading.Thread(
                target=self._compact_loop, name="segment-compactor", daemon=True
            )
            self._thread.start()

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_built(
        cls,
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        evidence_of: Mapping[str, Sequence[tuple[str, int]]],
        config: FinderConfig,
        *,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        compaction: str = "synchronous",
        fanout: int = DEFAULT_FANOUT,
        block_span: int | None = None,
    ) -> "SegmentedIndex":
        """Wrap a cold build's indexes + evidence as the base segment."""
        index = cls(
            config,
            seal_threshold=seal_threshold,
            compaction=compaction,
            fanout=fanout,
            block_span=block_span,
        )
        if evidence_of or term_index.document_count:
            evidence = {
                doc_id: tuple((cid, distance) for cid, distance in rows)
                for doc_id, rows in evidence_of.items()
            }
            index._register(
                Segment(
                    index._next_id(),
                    term_index,
                    entity_index,
                    evidence,
                    block_span=index._block_span,
                )
            )
        return index

    @classmethod
    def restore_compiled(
        cls,
        config: FinderConfig,
        segments: Iterable[Segment],
        buffer: tuple[InvertedIndex, EntityIndex, Mapping[str, _Rows]] | None,
        **kwargs: Any,
    ) -> "SegmentedIndex":
        """Rebuild from already-compiled :class:`Segment` objects (the
        snapshot-v3 mmap path, via :meth:`Segment.from_columns`) plus an
        optional unsealed buffer; duplicated resources and out-of-range
        evidence distances are rejected."""
        index = cls(config, **kwargs)
        for segment in segments:
            index._register(segment)
            index._next_segment_id = max(
                index._next_segment_id, segment.segment_id + 1
            )
        if buffer is not None:
            term_index, entity_index, evidence = buffer
            restored = _WriteBuffer.restore(term_index, entity_index, evidence)
            index._absorb_ids(restored.resource_ids, "the write buffer")
            index._validate_rows(restored.evidence.values())
            index._buffer = restored
            index._doc_count += restored.document_count
        return index

    def _register(self, segment: Segment) -> None:
        self._absorb_ids(segment.resource_ids, f"segment {segment.segment_id}")
        self._validate_rows(segment.evidence.values())
        self._segments = [*self._segments, segment]
        self._doc_count += segment.document_count

    def _absorb_ids(self, resource_ids: frozenset[str], where: str) -> None:
        overlap = self._resource_ids & resource_ids
        if overlap:
            example = sorted(overlap)[0]
            raise ValueError(
                f"resource {example!r} appears in more than one place "
                f"(while adding {where})"
            )
        self._resource_ids |= resource_ids

    def _validate_rows(self, rows_of: Iterable[_Rows]) -> None:
        weight_of = self._weight_of
        distances = {distance for rows in rows_of for _cid, distance in rows}
        bad = distances - weight_of.keys()
        if bad:
            raise ValueError(
                f"distance {min(bad)} outside 0..{self._config.max_distance}"
            )

    def _next_id(self) -> int:
        with self._lock:
            segment_id = self._next_segment_id
            self._next_segment_id += 1
        return segment_id

    # -- writes --------------------------------------------------------------------

    def add(
        self,
        analyzed: AnalyzedResource,
        supporters: Sequence[tuple[str, int]],
        *,
        index: bool = True,
    ) -> None:
        """Admit one streamed resource into the write buffer.

        *supporters* are the resource's Eq.-3 evidence rows; with
        ``index=False`` the resource is evidence-only (the build-time
        language cut). Indexed adds shift every irf/eirf ratio, so the
        shared statistics caches are invalidated here — stale statistics
        cannot be observed through this class. Reaching the seal
        threshold seals the buffer and (mode permitting) compacts.
        """
        doc_id = analyzed.doc_id
        if doc_id in self._resource_ids:
            raise ValueError(f"resource {doc_id!r} already admitted")
        rows = tuple((cid, distance) for cid, distance in supporters)
        if not rows:
            raise ValueError("a resource must support at least one candidate")
        self._validate_rows((rows,))
        self._buffer.add(analyzed, rows, index)
        self._resource_ids.add(doc_id)
        if index:
            self._doc_count += 1
            self._invalidate_statistics()
        if self._buffer.resource_count >= self._seal_threshold:
            self.seal()

    def _invalidate_statistics(self) -> None:
        self._irf_cache.clear()
        self._eirf_cache.clear()
        self._tw_cache.clear()
        self._ew_cache.clear()

    def seal(self) -> Segment | None:
        """Seal the buffer into a segment now (no-op when empty), then
        trigger compaction per the configured mode."""
        segment = self._seal()
        if segment is not None:
            if self._compaction == "synchronous":
                self.compact()
            elif self._compaction == "background":
                self._wake.set()
        return segment

    def _seal(self) -> Segment | None:
        # compaction-free inner seal, shared with compact(full=True)
        buffer = self._buffer
        if buffer.resource_count == 0:
            return None
        segment = Segment(
            self._next_id(),
            buffer.term_index,
            buffer.entity_index,
            buffer.evidence,
            block_span=self._block_span,
        )
        with self._lock:
            self._segments = [*self._segments, segment]
            self._buffer = _WriteBuffer()
        self._seals += 1
        return segment

    # -- compaction ----------------------------------------------------------------

    def _tier(self, segment: Segment) -> int:
        # floor(log_fanout(resource_count)) without float logarithms
        count = segment.resource_count
        fanout = self._fanout
        tier = 0
        bound = fanout
        while bound <= count:
            tier += 1
            bound *= fanout
        return tier

    def _plan(self, segments: Sequence[Segment]) -> tuple[int, int] | None:
        """The first adjacent run of >= fanout same-tier segments, as a
        ``[start, stop)`` index range — or None when nothing qualifies.
        Only adjacent segments merge, so the stream order of evidence
        (and therefore the snapshot layout) is preserved."""
        tiers = [self._tier(segment) for segment in segments]
        start = 0
        while start < len(segments):
            stop = start
            while stop < len(tiers) and tiers[stop] == tiers[start]:
                stop += 1
            if stop - start >= self._fanout:
                return start, stop
            start = stop
        return None

    def compact(self, *, full: bool = False) -> int:
        """Run compaction to quiescence; returns the merges performed.

        ``full=True`` first seals the buffer, then merges *all* live
        segments into one — the "optimize" path behind
        ``repro index --compact``.
        """
        with self._compact_lock:
            if full:
                self._seal()
                if len(self._segments) <= 1:
                    return 0
                self._merge_range(0, len(self._segments))
                return 1
            merges = 0
            while True:
                plan = self._plan(self._segments)
                if plan is None:
                    return merges
                self._merge_range(*plan)
                merges += 1

    def _merge_range(self, start: int, stop: int) -> None:
        # seals only append at the tail, so [start, stop) stays valid for
        # the duration of the merge even when writes race the background
        # compactor; the swap below re-reads the live list under the lock
        run = self._segments[start:stop]
        term_index = InvertedIndex()
        entity_index = EntityIndex()
        evidence: dict[str, _Rows] = {}
        for segment in run:
            term_index.merge(segment.term_index)
            entity_index.merge(segment.entity_index)
            evidence.update(segment.evidence)
        merged = Segment(
            self._next_id(),
            term_index,
            entity_index,
            evidence,
            block_span=self._block_span,
        )
        with self._lock:
            live = self._segments
            self._segments = [*live[:start], merged, *live[stop:]]
        self._compactions += 1

    def _compact_loop(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._closed:
                return
            self.compact()

    def await_compactions(self) -> None:
        """Block until no compaction work remains (a background pass in
        flight finishes first; then any residual plan runs inline)."""
        self.compact()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the background compactor, if any. Idempotent.

        Raises :class:`RuntimeError` if the compactor thread is still
        alive after *timeout* seconds — a wedged merge must surface, not
        be silently abandoned mid-flight. The thread handle is kept so a
        later :meth:`close` can retry the join.
        """
        self._closed = True
        thread = self._thread
        if thread is not None:
            self._wake.set()
            thread.join(timeout=timeout)
            if thread.is_alive():
                raise RuntimeError(
                    f"segment compactor did not stop within {timeout} s; "
                    "a compaction pass is still running"
                )
            self._thread = None

    def __enter__(self) -> "SegmentedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- shared collection statistics ----------------------------------------------

    @property
    def block_span(self) -> int:
        """Doc-index span per pruning block for segments sealed here."""
        return self._block_span

    @property
    def document_count(self) -> int:
        """Indexed documents across all segments plus the buffer — the N
        of the shared irf/eirf ratios."""
        return self._doc_count

    @property
    def resource_count(self) -> int:
        """All admitted resources, including evidence-only ones."""
        return len(self._resource_ids)

    def irf(self, term: str) -> float:
        """Inverse resource frequency of *term* over the union — the same
        integers (and therefore the same float) as a
        :class:`~repro.index.statistics.CollectionStatistics` over the
        merged collection."""
        cached = self._irf_cache.get(term)
        if cached is not None:
            return cached
        df = self._buffer.term_index.document_frequency(term)
        for segment in self._segments:
            df += segment.term_df(term)
        value = math.log(1.0 + self._doc_count / df) if df else 0.0
        self._irf_cache[term] = value
        return value

    def eirf(self, entity_uri: str) -> float:
        """Inverse resource frequency of *entity_uri* over the union."""
        cached = self._eirf_cache.get(entity_uri)
        if cached is not None:
            return cached
        df = self._buffer.entity_index.document_frequency(entity_uri)
        for segment in self._segments:
            df += segment.entity_df(entity_uri)
        value = math.log(1.0 + self._doc_count / df) if df else 0.0
        self._eirf_cache[entity_uri] = value
        return value

    def _powered_irf(self, term: str) -> float:
        cached = self._tw_cache.get(term)
        if cached is None:
            cached = self._tw_cache[term] = self.irf(term) ** self._idf_exponent
        return cached

    def _powered_eirf(self, uri: str) -> float:
        cached = self._ew_cache.get(uri)
        if cached is None:
            cached = self._ew_cache[uri] = self.eirf(uri) ** self._idf_exponent
        return cached

    def _query_weights(
        self, query: AnalyzedResource, alpha: float
    ) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
        terms: list[tuple[str, float]] = []
        if alpha > 0.0:
            for term in query.term_counts:
                weight = self._powered_irf(term)
                if weight:
                    terms.append((term, weight))
        entities: list[tuple[str, float]] = []
        if alpha < 1.0:
            for uri in query.entity_counts:
                weight = self._powered_eirf(uri)
                if weight:
                    entities.append((uri, weight))
        return terms, entities

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
        """Rank the candidate experts for an analyzed *query* across all
        live segments plus the buffer — byte-identical to the object
        path over the same collection. With ``pruned=True``, absolute
        windows evaluate each segment in the block-max mode (identical
        output, fewer postings touched); other window shapes fall back
        to the exhaustive path and are counted in *stats*."""
        if stats is None:
            stats = self.pruning_stats
        cut, pruned = plan_query(alpha, window, pruned, stats)
        entries = self._collect(query, alpha, cut, pruned, stats)
        entries.sort()
        del entries[window_size(window, len(entries)):]
        return fold_experts(entries, self._weight_of, self._normalize, top_k)

    def _collect(
        self,
        query: AnalyzedResource,
        alpha: float,
        cut: int | None,
        pruned: bool,
        stats: PruningStats,
        shared_floor: Any = None,
    ) -> list[_Entry]:
        """Every source's share of the window as ``(-score, doc_id,
        rows)``, unsorted: each source's best *cut* matches (all of
        them when *cut* is None). A pruned walk carries the best proven
        floor from source to source (and across shard workers through
        *shared_floor*)."""
        terms, entities = self._query_weights(query, alpha)
        entries = self._buffer.score(terms, entities, alpha)
        bar = 0.0
        if cut is not None and len(entries) >= cut:
            entries.sort()
            del entries[cut:]
            bar = -entries[-1][0]
        segments = self._segments
        try:
            if pruned and cut is not None:
                # walk the segments best-bound first, so the floor they
                # prove rules out as much of the rest as possible
                plans = [
                    (segment.plan_pruned(terms, entities, alpha), segment)
                    for segment in segments
                ]
                plans.sort(key=_plan_bound, reverse=True)
                for plan, segment in plans:
                    hits, floor = segment.score_pruned(
                        plan, alpha, cut, bar, stats, shared_floor
                    )
                    if floor > bar:
                        bar = floor
                    entries += hits
            else:
                for segment in segments:
                    entries += segment.score(terms, entities, alpha, cut)
        except BaseException:
            # scratch accumulators may be mid-query; rebuild them clean
            for segment in segments:
                segment._init_scratch()
            raise
        return entries

    # -- introspection -------------------------------------------------------------

    @property
    def config(self) -> FinderConfig:
        return self._config

    @property
    def seal_threshold(self) -> int:
        return self._seal_threshold

    @property
    def compaction_mode(self) -> str:
        return self._compaction

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def write_buffer(self) -> _WriteBuffer:
        """The live write buffer (read-only use: snapshots, stats)."""
        return self._buffer

    def iter_segments(self) -> tuple[Segment, ...]:
        """The live sealed segments, oldest first (a stable snapshot)."""
        return tuple(self._segments)

    def merged_slice(
        self,
    ) -> tuple[InvertedIndex, EntityIndex, Mapping[str, _Rows]]:
        """The whole collection as one ``(term_index, entity_index,
        evidence)`` triple — what the object path and the sharded
        snapshot writer read (hydrates column-restored segments). A lone
        segment with an empty buffer is returned as is, so callers must
        treat the result as read-only."""
        segments = self._segments
        buffer = self._buffer
        if len(segments) == 1 and not buffer.resource_count:
            (segment,) = segments
            return segment.term_index, segment.entity_index, segment.evidence
        term_index = InvertedIndex()
        entity_index = EntityIndex()
        evidence: dict[str, _Rows] = {}
        for segment in segments:
            term_index.merge(segment.term_index)
            entity_index.merge(segment.entity_index)
            evidence.update(segment.evidence)
        term_index.merge(buffer.term_index)
        entity_index.merge(buffer.entity_index)
        evidence.update(buffer.evidence)
        return term_index, entity_index, evidence

    @property
    def stats(self) -> SegmentStats:
        segments = self._segments
        return SegmentStats(
            segments=len(segments),
            segment_docs=tuple(s.document_count for s in segments),
            buffered=self._buffer.resource_count,
            documents=self._doc_count,
            resources=len(self._resource_ids),
            seals=self._seals,
            compactions=self._compactions,
        )
