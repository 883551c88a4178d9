"""The segmented index: the one query path for Eq. 1 → window → Eq. 3.

Every finder is a :class:`SegmentedIndex` (cf. production
expert-mining systems, which absorb half a billion streamed signals this
way — Spasojevic et al.): a cold build is one sealed segment plus an
empty write buffer. The pieces:

* **write buffer** — streamed resources (Eq. 1 term/entity postings plus
  Eq. 3 evidence rows) are appended to the columns of a small
  :class:`_WriteBuffer`, in arrival order; an ``observe`` touches
  nothing else;
* **sealed segments** — when the buffer reaches ``seal_threshold``
  resources its doc indexes are renumbered into doc-id order and it
  becomes an immutable :class:`Segment` that holds
  columns only, never touched again: the sorted doc-id table, each
  term's ``(doc, tf)`` and each entity's ``(doc, ef, we, ds)`` postings
  as one CSR per group (doc indexes in sorted-id order), the evidence
  CSR over its resources table, and its candidate table. A loaded
  segment's columns are read-only views over the mapped snapshot, and
  a load builds no posting objects and no evidence tuples;
* **tiered compaction** — adjacent segments of the same size tier are
  merged either synchronously after a seal or only on explicit
  :meth:`SegmentedIndex.compact`. A merge concatenates columns
  (:meth:`Segment.merge`): the merged doc table is a sorted merge of the
  runs' disjoint tables, each key's postings are the sources' postings
  in segment order — the order one index filled with the whole stream
  keeps — and the evidence CSR is the sources' CSRs one after the other.

A query forms its per-item weights ``tw = irf^p`` / ``ew = eirf^p`` once
from **shared collection statistics** (the union document count and the
summed per-source document frequencies), then each source — every
segment and the buffer — scores its own documents with one numpy kernel
(:meth:`_Source.score`): per query item, ``T[docs] += tf·tw`` and
``E[docs] += (ef·ew)·we``, then ``α·T + (1−α)·E``, keeping positive
scores as ``(scores, doc indexes)`` arrays in ``(-score, doc_id)``
order. With an absolute window each source cuts its own matches to the
window. The window cut and the Eq. 3 fold are columnar too
(:meth:`SegmentedIndex._rank`): the windowed documents' evidence rows
are gathered from each source's evidence columns (:meth:`_Source.rows`)
in global ``(-score, doc_id)`` order, and ``np.bincount`` sums
``score · wr`` per candidate over one shared candidate index kept in
sorted-id order.

The kernel is exact: doc indexes are unique within a column, so each
fancy-indexed add gives every posting one IEEE addition into its
document's accumulator, in the query's item order with terms before
entities — the object path's order — and the products and the α blend
are the same float operations, elementwise. The per-source cut is
exact too: each document lives in exactly one source and each source
breaks score ties on doc id (within a segment doc-index order is
doc-id order; the buffer's doc indexes follow arrival, so it sorts its
kept matches' ids), so the global top-W is contained in the union of
the per-source top-W. The fold is exact
because ``np.bincount`` adds its weights in input order into slots that
start at 0.0, which is the object path's per-candidate dict walk over
the same rows in the same order. Rankings are therefore
**byte-identical** to the reference path's dict walks over the same
collection (``tests/reference/``; ``tests/core/test_differential.py``
and ``tests/index/test_columnar.py`` pin this).

Thread model: one thread queries and writes. The live-segment list is
swapped immutably under a lock, so a query holds a consistent snapshot
while a compaction replaces merged runs; sealed segments are never
mutated.
"""

from __future__ import annotations

import math
import threading
from array import array
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, chain
from typing import Any, NamedTuple
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

# Direct submodule imports only — ``repro.index`` is imported by
# ``repro.core``, so pulling core *package* attributes here would cycle.
from repro.core.config import FinderConfig
from repro.core.ranking import ExpertScore
from repro.core.scoring import distance_weight_table, entity_weight, window_size
from repro.index.analyzer import AnalyzedResource

#: default buffer size (in resources) at which the buffer seals
DEFAULT_SEAL_THRESHOLD = 256

#: default tier fanout: a run of this many same-tier segments is merged
DEFAULT_FANOUT = 4

_COMPACTION_MODES = ("synchronous", "manual")

#: evidence rows: ``((candidate_id, distance), ...)`` in stream order
_Rows = tuple[tuple[str, int], ...]

_Ints = npt.NDArray[np.int64]
_Floats = npt.NDArray[np.float64]

_NO_INTS: _Ints = np.zeros(0, dtype=np.int64)

#: one source's matches: ``(scores, doc indexes)`` in ``(-score, doc_id)``
#: order
Hits = tuple[_Floats, _Ints]

#: a query's weighted terms or entities: ``(key, weight)`` in query order
_Items = Sequence[tuple[str, float]]

#: a posting group's columns by key, as a query reads them
_Views = Mapping[str, tuple[Any, ...]]

#: one source's survivors in its own ``(-score, doc_id)`` order:
#: ``(scores, doc indexes, source)``
_Part = tuple[_Floats, _Ints, "_Source"]


def window_cut(alpha: float, window: int | float | None) -> int | None:
    """Validate a query's parameters and return the absolute window each
    source may cut its own matches to: None for fractional and ``None``
    windows, whose width depends on the total match count."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    window_size(window, 0)  # validate the window shape up front
    # bools are rejected above, so a remaining int is a positive count
    return window if isinstance(window, int) else None


def _expand(first: _Ints, count: _Ints) -> _Ints:
    """``first[i], first[i] + 1, …`` (``count[i]`` of them) for every
    ``i``, concatenated in order."""
    ends = np.cumsum(count)
    return np.repeat(first - ends + count, count) + np.arange(
        ends[-1] if len(ends) else 0
    )


def _offsets(lengths: Any) -> _Ints:
    """CSR offsets: 0, then the running sum of *lengths*."""
    off = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    return off


def _sorted_positions(names: Sequence[str]) -> tuple[list[int], _Ints]:
    """The indexes of *names* in sorted order, and each name's position
    in that order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    position = np.empty(len(names), dtype=np.int64)
    position[order] = np.arange(len(names))
    return order, position


@dataclass(frozen=True, slots=True)
class PostingColumns:
    """One CSR posting group of a segment: its terms or its entities.

    ``columns`` are flat and parallel (doc index first), key after key
    in key order and each key's postings in postings order; key ``i``
    spans ``off[i]:off[i + 1]``. ``views`` maps each key, in key order,
    to views of its span of the first ``queried`` columns, which the
    Eq. 1 kernel reads (an entity's ``ds`` is kept for saves, not
    queried)."""

    off: _Ints
    columns: tuple[Any, ...]
    views: dict[str, tuple[Any, ...]]
    queried: int

    @classmethod
    def of(
        cls, keys: Sequence[str], off: _Ints, columns: Sequence[Any], queried: int
    ) -> "PostingColumns":
        bounds = off.tolist()
        queried_columns = columns[:queried]
        views = {
            key: tuple(column[bounds[i] : bounds[i + 1]] for column in queried_columns)
            for i, key in enumerate(keys)
        }
        return cls(off, tuple(columns), views, queried)

    @classmethod
    def concat(
        cls, parts: Sequence[tuple["PostingColumns", _Ints]]
    ) -> "PostingColumns":
        """The groups of *parts* — each a group and its doc-index remap —
        as one group: keys in first-seen order, and each key's postings
        the parts' postings in part order, each part's in its own order.
        A stable sort on the merged key index keeps exactly that order."""
        key_of: dict[str, int] = {}
        owners: list[_Ints] = []
        for group, _remap in parts:
            ids = np.fromiter(
                (key_of.setdefault(key, len(key_of)) for key in group.views),
                np.int64,
                len(group.views),
            )
            owners.append(np.repeat(ids, np.diff(group.off)))
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        docs = np.concatenate([remap[group.columns[0]] for group, remap in parts])
        columns = [docs[order]] + [
            np.concatenate([group.columns[i] for group, _remap in parts])[order]
            for i in range(1, len(parts[0][0].columns))
        ]
        off = _offsets(np.bincount(owner, minlength=len(key_of)))
        return cls.of(list(key_of), off, columns, parts[0][0].queried)

    def df(self, key: str) -> int:
        """Postings of *key* in this group (0 when absent)."""
        view = self.views.get(key)
        return len(view[0]) if view is not None else 0


class EvidenceCsr(NamedTuple):
    """The resource → supporters relation of Eq. 3 as a CSR.

    ``resources`` is the resources table in stream order and
    ``candidates`` the sorted candidate table; resource ``i``'s rows are
    ``off[i]:off[i + 1]`` of the ``cand`` (candidate-table index) and
    ``dist`` columns, in the order they were admitted — the layout a
    snapshot saves."""

    resources: Sequence[str]
    candidates: Sequence[str]
    off: _Ints
    cand: _Ints
    dist: _Ints


def concat_evidence(parts: Sequence[EvidenceCsr]) -> EvidenceCsr:
    """The relations of *parts* one after the other, over their merged
    sorted candidate table (resources must be disjoint across parts)."""
    if len(parts) == 1:
        return parts[0]
    candidates = sorted(set().union(*(part.candidates for part in parts)))
    cand_of = {cid: i for i, cid in enumerate(candidates)}
    starts = [0, *accumulate(len(part.cand) for part in parts)]
    return EvidenceCsr(
        [resource for part in parts for resource in part.resources],
        candidates,
        np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [part.off[1:] + start for part, start in zip(parts, starts)]
        ),
        np.concatenate(
            [
                np.array([cand_of[cid] for cid in part.candidates], dtype=np.int64)[
                    part.cand
                ]
                for part in parts
            ]
        ),
        np.concatenate([part.dist for part in parts]),
    )


def _doc_rows(
    doc_ids: Sequence[str], csr: EvidenceCsr
) -> tuple[list[str], _Ints, _Ints]:
    """The sorted *doc_ids* spelled with the resources table's own
    string objects, so that each id is held once, then each document's
    first evidence row and row count. Every indexed document must be in
    the resources table."""
    resources = csr.resources
    if len(csr.off) != len(resources) + 1:
        raise ValueError(
            f"{len(csr.off) - 1} evidence offset range(s) for "
            f"{len(resources)} resource(s)"
        )
    position = dict(zip(resources, range(len(resources))))
    at = np.fromiter(
        (position.get(doc_id, -1) for doc_id in doc_ids), np.int64, len(doc_ids)
    )
    if len(at) and at.min() < 0:
        missing = doc_ids[int(np.argmin(at))]
        raise ValueError(f"indexed document {missing!r} has no evidence rows")
    first = csr.off[at]
    return [resources[i] for i in at.tolist()], first, csr.off[at + 1] - first


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


class _Source:
    """A slice of the collection a query scores: a sealed segment or the
    write buffer. Both score with the one Eq. 1 kernel (:meth:`score`)
    and gather evidence rows with the one gather (:meth:`rows`); each
    supplies the columns they read."""

    __slots__ = ()

    def _query_columns(
        self, terms: _Items, entities: _Items
    ) -> tuple[int, _Views, _Views, Sequence[str] | None]:
        """The document count, each query key's ``(doc, tf)`` / ``(doc,
        ef, we)`` columns, and the doc ids that break score ties by doc
        index (None when doc-index order is doc-id order already)."""
        raise NotImplementedError

    def _row_columns(self) -> tuple[_Ints, _Ints, _Ints, _Ints]:
        """The ``cand`` and ``dist`` row columns, and each document's
        first row and row count."""
        raise NotImplementedError

    def score(
        self, terms: _Items, entities: _Items, alpha: float, cut: int | None
    ) -> Hits:
        """Every positive Eq. 1 match as ``(scores, doc indexes)`` arrays
        in ``(-score, doc_id)`` order, cut to the best *cut* when given.

        Per query item, in the query's order, the item's column adds
        ``tf·tw`` into the term accumulator and ``(ef·ew)·we`` into the
        entity accumulator; a column holds each document once, so every
        posting is one IEEE add into its document's slot, exactly as the
        object path's dict walk adds it. The blend runs in place and is
        ``α*T + (1−α)*E``'s operations, elementwise."""
        n_docs, term_views, entity_views, ids = self._query_columns(terms, entities)
        term_acc = np.zeros(n_docs)
        entity_acc = np.zeros(n_docs)
        for term, tw in terms:
            cols = term_views.get(term)
            if cols is not None:
                docs, tf = cols
                term_acc[docs] += tf * tw
        for uri, ew in entities:
            ecols = entity_views.get(uri)
            if ecols is not None:
                docs, ef, we = ecols
                entity_acc[docs] += (ef * ew) * we
        term_acc *= alpha
        entity_acc *= 1.0 - alpha
        term_acc += entity_acc
        hits = np.flatnonzero(term_acc > 0.0)
        scores = term_acc[hits]
        if cut is not None and cut < len(hits):
            # keep every match scoring at least the cut-th best score
            # before ordering: ties at the boundary then keep the lowest
            # doc ids, as a full sort would, which is exactly the
            # source's share of the global window
            k = len(hits) - cut
            kept = scores >= np.partition(scores, k)[k]
            hits = hits[kept]
            scores = scores[kept]
        if ids is None:
            tie = hits
        else:
            _order, tie = _sorted_positions([ids[doc] for doc in hits.tolist()])
        order = np.lexsort((tie, -scores))[:cut]
        return scores[order], hits[order]

    def rows(self, docs: _Ints) -> tuple[_Ints, _Ints, _Ints]:
        """The evidence rows of *docs* (doc indexes), document after
        document in the given order: ``(local candidate indexes,
        distances, rows per document)``."""
        cand, dist, first, count = self._row_columns()
        count = count[docs]
        at = _expand(first[docs], count)
        return cand[at], dist[at], count


class Segment(_Source):
    """One immutable, columnar slice of the collection.

    Holds columns only: the sorted doc-id table, the term and entity
    :class:`PostingColumns` with *raw* frequencies — the collection
    statistics keep moving as the buffer grows, so ``tf·irf^p`` /
    ``ef·eirf^p·we`` are formed per query, with the object path's float
    operations — and the :class:`EvidenceCsr` the Eq. 3 fold gathers
    from, plus each document's span of it.
    """

    __slots__ = (
        "segment_id",
        "_doc_ids",
        "_term_cols",
        "_entity_cols",
        "_evidence_cols",
    )

    def __init__(
        self,
        segment_id: int,
        doc_ids: list[str],
        terms: PostingColumns,
        entities: PostingColumns,
        evidence: EvidenceCsr,
    ):
        """Adopt built columns: a snapshot's mapped sections, a merge's
        concatenation or a sealed write buffer's renumbered columns.

        *doc_ids* must be the segment's indexed doc ids in sorted order
        (the doc-index order the columns use); column values are numpy
        arrays, on a load read-only ``np.frombuffer`` views over the
        mapping. Only each document's span of *evidence* is derived.
        """
        doc_ids, first, count = _doc_rows(doc_ids, evidence)
        self.segment_id = segment_id
        self._doc_ids: list[str] = doc_ids
        self._term_cols = terms
        self._entity_cols = entities
        self._evidence_cols = (evidence, first, count)

    @classmethod
    def merge(cls, segment_id: int, run: Sequence["Segment"]) -> "Segment":
        """Adjacent segments *run* (oldest first) as one, by concatenating
        their columns: the doc tables are disjoint, so the merged table is
        their sorted merge and each source's doc indexes are renumbered by
        one remap array; postings and evidence rows keep segment order."""
        joined = [doc_id for segment in run for doc_id in segment.doc_ids]
        order, position = _sorted_positions(joined)
        bounds = [0, *accumulate(segment.document_count for segment in run)]
        remaps = [position[start:stop] for start, stop in zip(bounds, bounds[1:])]
        return cls(
            segment_id,
            [joined[i] for i in order],
            PostingColumns.concat(
                [(segment._term_cols, remap) for segment, remap in zip(run, remaps)]
            ),
            PostingColumns.concat(
                [(segment._entity_cols, remap) for segment, remap in zip(run, remaps)]
            ),
            concat_evidence([segment.evidence_csr for segment in run]),
        )

    def term_df(self, term: str) -> int:
        """Documents of this segment containing *term*."""
        return self._term_cols.df(term)

    def entity_df(self, entity_uri: str) -> int:
        """Documents of this segment annotated with *entity_uri*."""
        return self._entity_cols.df(entity_uri)

    @property
    def document_count(self) -> int:
        return len(self._doc_ids)

    @property
    def resource_count(self) -> int:
        return len(self._evidence_cols[0].resources)

    @property
    def resources(self) -> Sequence[str]:
        """Every resource of this segment (indexed or evidence-only), in
        stream order: the table the evidence CSR runs over."""
        return self._evidence_cols[0].resources

    @property
    def candidates(self) -> Sequence[str]:
        """The candidates this segment's evidence rows support, sorted:
        the table the ``cand`` column indexes."""
        return self._evidence_cols[0].candidates

    @property
    def distances(self) -> _Ints:
        """Every evidence row's distance, in resource order."""
        return self._evidence_cols[0].dist

    @property
    def doc_ids(self) -> list[str]:
        """The indexed doc ids in doc-index (sorted-id) order."""
        return self._doc_ids

    @property
    def term_columns(self) -> PostingColumns:
        return self._term_cols

    @property
    def entity_columns(self) -> PostingColumns:
        """The entity postings: ``(doc, ef, we, ds)`` columns."""
        return self._entity_cols

    @property
    def evidence_csr(self) -> EvidenceCsr:
        return self._evidence_cols[0]

    # -- query evaluation ----------------------------------------------------------

    def _query_columns(
        self, terms: _Items, entities: _Items
    ) -> tuple[int, _Views, _Views, None]:
        # doc-index order is doc-id order, so ties break on doc index
        return len(self._doc_ids), self._term_cols.views, self._entity_cols.views, None

    def _row_columns(self) -> tuple[_Ints, _Ints, _Ints, _Ints]:
        csr, first, count = self._evidence_cols
        return csr.cand, csr.dist, first, count


#: a write-buffer key's postings: one list per column, in arrival order
_Lists = tuple[list[Any], ...]


def _views(postings: Mapping[str, _Lists], items: _Items, queried: int) -> _Views:
    """The first *queried* columns of each of *items*' keys, as arrays."""
    views = {}
    for key, _weight in items:
        lists = postings.get(key)
        if lists is not None:
            views[key] = tuple(np.array(column) for column in lists[:queried])
    return views


def _renumbered(
    postings: Mapping[str, _Lists],
    remap: _Ints,
    dtypes: Sequence[type],
    queried: int,
) -> PostingColumns:
    """*postings* as one CSR group, keys in first-seen order and each
    key's postings in arrival order, with doc indexes renumbered by
    *remap*."""
    groups = list(postings.values())
    lengths = [len(lists[0]) for lists in groups]
    total = sum(lengths)
    columns = [
        np.fromiter(chain.from_iterable(lists[i] for lists in groups), dtype, total)
        for i, dtype in enumerate(dtypes)
    ]
    columns[0] = remap[columns[0]]
    return PostingColumns.of(list(postings), _offsets(lengths), columns, queried)


def _lists(group: PostingColumns) -> dict[str, _Lists]:
    """A CSR group's postings as per-key column lists."""
    columns = [column.tolist() for column in group.columns]
    bounds = group.off.tolist()
    return {
        key: tuple(column[bounds[i] : bounds[i + 1]] for column in columns)
        for i, key in enumerate(group.views)
    }


class _WriteBuffer(_Source):
    """The growing tail of the collection, as append-only columns in
    arrival order.

    A document's doc index is its arrival index among the indexed
    documents. Each term keeps ``(doc, tf)`` lists and each entity
    ``(doc, ef, we, ds)`` lists, keys in first-seen order and postings in
    arrival order. The evidence rows are ``array`` columns: per resource,
    its ``cand`` (an index into a candidate table in first-seen order)
    and ``dist`` rows, plus each document's first row and row count. The
    buffer scores and gathers with the :class:`_Source` kernel and
    gather, as a segment does; only its score ties break on its matches'
    sorted ids rather than on doc index. A seal renumbers the columns
    into a :class:`Segment` (:meth:`as_segment`).

    Arrays are read through copies (``np.array``), never through
    ``np.frombuffer``: an ``array`` that exports its buffer cannot grow.
    """

    __slots__ = (
        "doc_ids",
        "resources",
        "candidates",
        "_cand_of",
        "_terms",
        "_entities",
        "_ev_off",
        "_ev_cand",
        "_ev_dist",
        "_row_first",
        "_row_count",
    )

    def __init__(self) -> None:
        #: indexed doc ids, in arrival (doc-index) order
        self.doc_ids: list[str] = []
        #: every resource (indexed or evidence-only), in arrival order
        self.resources: list[str] = []
        #: the candidates the evidence rows support, in first-seen order
        self.candidates: list[str] = []
        self._cand_of: dict[str, int] = {}
        self._terms: dict[str, _Lists] = {}
        self._entities: dict[str, _Lists] = {}
        self._ev_off = array("q", (0,))
        self._ev_cand = array("q")
        self._ev_dist = array("q")
        self._row_first = array("q")
        self._row_count = array("q")

    @classmethod
    def adopt(cls, segment: Segment) -> "_WriteBuffer":
        """A buffer that continues *segment*'s collection (a snapshot's
        buffer container): its columns are copied, since mapped views are
        read-only, and its doc-id order is the arrival order."""
        buffer = cls()
        buffer.doc_ids = list(segment.doc_ids)
        buffer.resources = list(segment.resources)
        buffer._terms = _lists(segment.term_columns)
        buffer._entities = _lists(segment.entity_columns)
        csr = segment.evidence_csr
        buffer.candidates = list(csr.candidates)
        buffer._cand_of = {cid: i for i, cid in enumerate(buffer.candidates)}
        buffer._ev_off = array("q", csr.off.tolist())
        buffer._ev_cand, buffer._ev_dist, buffer._row_first, buffer._row_count = (
            array("q", column.tolist()) for column in segment._row_columns()
        )
        return buffer

    @property
    def document_count(self) -> int:
        return len(self.doc_ids)

    @property
    def resource_count(self) -> int:
        return len(self.resources)

    def add(self, analyzed: AnalyzedResource, rows: _Rows, index: bool) -> None:
        """Append one resource: its evidence *rows* and, when *index*,
        its term and entity postings as the next document."""
        entities = [
            (uri, ef, ds) for uri, (ef, ds) in analyzed.entity_counts.items() if ef > 0
        ]
        if not all(0.0 <= ds <= 1.0 for _uri, _ef, ds in entities):
            raise ValueError(f"d_score must be in [0, 1]: {analyzed.entity_counts}")
        first = len(self._ev_cand)
        cand_of = self._cand_of
        for cid, distance in rows:
            c = cand_of.get(cid)
            if c is None:
                c = cand_of[cid] = len(self.candidates)
                self.candidates.append(cid)
            self._ev_cand.append(c)
            self._ev_dist.append(distance)
        self._ev_off.append(len(self._ev_cand))
        self.resources.append(analyzed.doc_id)
        if not index:
            return
        doc = len(self.doc_ids)
        self.doc_ids.append(analyzed.doc_id)
        self._row_first.append(first)
        self._row_count.append(len(rows))
        terms = self._terms
        for term, tf in analyzed.term_counts.items():
            if tf > 0:
                lists = terms.get(term)
                if lists is None:
                    terms[term] = ([doc], [tf])
                else:
                    lists[0].append(doc)
                    lists[1].append(tf)
        postings = self._entities
        for uri, ef, ds in entities:
            we = entity_weight(ds)
            lists = postings.get(uri)
            if lists is None:
                postings[uri] = ([doc], [ef], [we], [ds])
            else:
                for column, value in zip(lists, (doc, ef, we, ds)):
                    column.append(value)

    def term_df(self, term: str) -> int:
        lists = self._terms.get(term)
        return len(lists[0]) if lists is not None else 0

    def entity_df(self, entity_uri: str) -> int:
        lists = self._entities.get(entity_uri)
        return len(lists[0]) if lists is not None else 0

    def _query_columns(
        self, terms: _Items, entities: _Items
    ) -> tuple[int, _Views, _Views, list[str]]:
        # doc indexes follow arrival, so ties break on the doc ids
        return (
            len(self.doc_ids),
            _views(self._terms, terms, 2),
            _views(self._entities, entities, 3),
            self.doc_ids,
        )

    def _row_columns(self) -> tuple[_Ints, _Ints, _Ints, _Ints]:
        return (
            np.array(self._ev_cand),
            np.array(self._ev_dist),
            np.array(self._row_first),
            np.array(self._row_count),
        )

    @property
    def evidence_csr(self) -> EvidenceCsr:
        """The buffer's evidence as a segment holds it: over the sorted
        candidate table."""
        table = self.candidates
        order, position = _sorted_positions(table)
        return EvidenceCsr(
            list(self.resources),
            [table[i] for i in order],
            np.array(self._ev_off),
            position[np.array(self._ev_cand)],
            np.array(self._ev_dist),
        )

    def as_segment(self, segment_id: int) -> Segment:
        """The buffer's collection as a sealed segment (a seal, the end of
        a cold build, or the columns a snapshot writes for the buffer):
        one remap array renumbers the doc indexes into doc-id order, and
        the candidate table is sorted; keys stay in first-seen order and
        each key's postings in arrival order."""
        ids = self.doc_ids
        order, rank = _sorted_positions(ids)
        return Segment(
            segment_id,
            [ids[i] for i in order],
            _renumbered(self._terms, rank, (np.int64, np.int64), 2),
            _renumbered(
                self._entities, rank, (np.int64, np.int64, np.float64, np.float64), 3
            ),
            self.evidence_csr,
        )


class SegmentedIndex:
    """Sealed segments + write buffer behind one query interface.

    Construction: :meth:`from_built` seals a cold build's resources
    into the base segment; :meth:`restore_compiled` rebuilds
    from mapped snapshot segments; the bare constructor starts empty.
    ``compaction`` is ``"synchronous"`` (merge inline after each seal) or
    ``"manual"`` (only explicit :meth:`compact`).
    """

    def __init__(
        self,
        config: FinderConfig,
        *,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        compaction: str = "synchronous",
        fanout: int = DEFAULT_FANOUT,
    ):
        if seal_threshold < 1:
            raise ValueError(f"seal_threshold must be >= 1, got {seal_threshold}")
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        if compaction not in _COMPACTION_MODES:
            raise ValueError(
                f"compaction must be one of {_COMPACTION_MODES}, got {compaction!r}"
            )
        self._config = config
        self._idf_exponent = config.idf_exponent
        self._normalize = config.normalize
        weight_of = distance_weight_table(config.max_distance, config.weight_interval)
        #: ``wr`` by distance, the fold's row weights
        self._wr = np.array([weight_of[d] for d in range(len(weight_of))])
        #: every candidate some evidence row supports, in sorted-id order,
        #: so that candidate-index order is candidate-id order
        self._cand_ids: list[str] = []
        self._cand_of: dict[str, int] = {}
        #: source → its local candidate indexes' shared indexes, built on
        #: a source's first query (see :meth:`_shared`)
        self._cand_maps: dict[_Source, _Ints] = {}
        self._seal_threshold = seal_threshold
        self._fanout = fanout
        self._compaction = compaction
        self._segments: list[Segment] = []  # replaced immutably under _lock
        self._buffer = _WriteBuffer()
        #: every admitted resource: the one membership set the duplicate
        #: checks use
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

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_built(
        cls,
        resources: Iterable[tuple[AnalyzedResource, _Rows, bool]],
        config: FinderConfig,
        *,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        compaction: str = "synchronous",
        fanout: int = DEFAULT_FANOUT,
    ) -> "SegmentedIndex":
        """A cold build's index: each ``(analyzed, evidence rows,
        indexed)`` resource, in order, goes through the write buffer's
        ``add`` — the call every observe makes — into a fresh buffer,
        which seals once into the base segment (none for an empty
        build). *resources* is consumed before the seal starts."""
        index = cls(
            config,
            seal_threshold=seal_threshold,
            compaction=compaction,
            fanout=fanout,
        )
        buffer = _WriteBuffer()
        for analyzed, rows, indexed in resources:
            buffer.add(analyzed, rows, indexed)
        if buffer.resource_count:
            index._register(buffer.as_segment(index._next_id()))
        return index

    @classmethod
    def restore_compiled(
        cls,
        config: FinderConfig,
        segments: Iterable[Segment],
        buffer: Segment | None,
        **kwargs: Any,
    ) -> "SegmentedIndex":
        """Rebuild from column :class:`Segment` objects (the snapshot-v3
        mmap path) plus an optional unsealed buffer, mapped the same way
        and adopted as a :class:`_WriteBuffer`'s columns; duplicated
        resources and out-of-range evidence distances are rejected."""
        index = cls(config, **kwargs)
        for segment in segments:
            index._register(segment)
            index._next_segment_id = max(
                index._next_segment_id, segment.segment_id + 1
            )
        if buffer is not None:
            index._absorb_ids(buffer.resources, "the write buffer")
            index._validate_distances(buffer.distances)
            index._admit(buffer.candidates)
            index._buffer = _WriteBuffer.adopt(buffer)
            index._doc_count += buffer.document_count
        return index

    def _register(self, segment: Segment) -> None:
        self._absorb_ids(segment.resources, f"segment {segment.segment_id}")
        self._validate_distances(segment.distances)
        self._segments = [*self._segments, segment]
        self._doc_count += segment.document_count
        self._admit(segment.candidates)

    def _absorb_ids(self, resource_ids: Iterable[str], where: str) -> None:
        admitted = self._resource_ids
        for resource_id in resource_ids:
            if resource_id in admitted:
                raise ValueError(
                    f"resource {resource_id!r} appears in more than one place "
                    f"(while adding {where})"
                )
            admitted.add(resource_id)

    def _validate_distances(self, distances: Sequence[int] | _Ints) -> None:
        top = self._config.max_distance
        if isinstance(distances, np.ndarray):
            bad = distances[(distances < 0) | (distances > top)].tolist()
        else:
            bad = [distance for distance in distances if not 0 <= distance <= top]
        if bad:
            raise ValueError(f"distance {min(bad)} outside 0..{top}")

    def _admit(self, candidate_ids: Iterable[str]) -> None:
        """Add the unseen *candidate_ids* to the shared candidate table,
        keeping it in sorted-id order; that renumbers the table, so every
        source's map is dropped and rebuilt on its next query."""
        fresh = set(candidate_ids).difference(self._cand_of)
        if fresh:
            self._cand_ids = sorted(fresh.union(self._cand_ids))
            self._cand_of = {cid: i for i, cid in enumerate(self._cand_ids)}
            self._cand_maps = {}

    def _shared(self, source: _Source) -> _Ints:
        """*source*'s map from local to shared candidate indexes, extended
        over the candidates its table gained since the map was built (only
        the buffer's table grows)."""
        known = self._cand_maps.get(source, _NO_INTS)
        table = source.candidates
        if len(known) < len(table):
            cand_of = self._cand_of
            fresh = [cand_of[cid] for cid in table[len(known) :]]
            known = self._cand_maps[source] = np.concatenate(
                (known, np.array(fresh, dtype=np.int64))
            )
        return known

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
        self._validate_distances([distance for _cid, distance in rows])
        self._buffer.add(analyzed, rows, index)
        self._admit(cid for cid, _distance in rows)
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
        if segment is not None and self._compaction == "synchronous":
            self.compact()
        return segment

    def _seal(self) -> Segment | None:
        # compaction-free inner seal, shared with compact(full=True)
        buffer = self._buffer
        if buffer.resource_count == 0:
            return None
        segment = buffer.as_segment(self._next_id())
        with self._lock:
            self._segments = [*self._segments, segment]
            self._buffer = _WriteBuffer()
        self._cand_maps.pop(buffer, None)
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

        ``full=True`` first seals the buffer, then merges every segment
        into one — the "optimize" path behind ``repro index --compact``.
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
        run = self._segments[start:stop]
        merged = Segment.merge(self._next_id(), run)
        with self._lock:
            live = self._segments
            self._segments = [*live[:start], merged, *live[stop:]]
        for segment in run:
            self._cand_maps.pop(segment, None)
        self._compactions += 1

    # -- shared collection statistics ----------------------------------------------

    @property
    def document_count(self) -> int:
        """Indexed documents across all segments plus the buffer — the N
        of the shared irf/eirf ratios."""
        return self._doc_count

    @property
    def resource_count(self) -> int:
        """All admitted resources, including evidence-only ones."""
        return len(self._resource_ids)

    def __contains__(self, resource_id: object) -> bool:
        """Whether *resource_id* was admitted (indexed or evidence-only)."""
        return resource_id in self._resource_ids

    def irf(self, term: str) -> float:
        """Inverse resource frequency of *term* over the union,
        ``log(1 + N / df)``: the same integers (and therefore the same
        float) as over one index of the merged collection."""
        cached = self._irf_cache.get(term)
        if cached is not None:
            return cached
        df = self._buffer.term_df(term)
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
        df = self._buffer.entity_df(entity_uri)
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
    ) -> list[ExpertScore]:
        """Rank the candidate experts for an analyzed *query* across all
        live segments plus the buffer — byte-identical to the object
        path over the same collection."""
        cut = window_cut(alpha, window)
        terms, entities = self._query_weights(query, alpha)
        return self._rank(self._collect(terms, entities, alpha, cut), window, top_k)

    def _collect(
        self,
        terms: _Items,
        entities: _Items,
        alpha: float,
        cut: int | None,
    ) -> list[_Part]:
        """Every live segment's and the buffer's share of the window: each
        source's best *cut* matches (all of them when *cut* is None) in
        its own ``(-score, doc_id)`` order; sources without a document
        are not scored, and sources without a match are left out."""
        parts: list[_Part] = []
        for source in (*self._segments, self._buffer):
            if source.document_count:
                scores, docs = source.score(terms, entities, alpha, cut)
                if len(scores):
                    parts.append((scores, docs, source))
        return parts

    def _rank(
        self, parts: list[_Part], window: int | float | None, top_k: int | None
    ) -> list[ExpertScore]:
        """The global window cut over every source's survivors, then Eq. 3
        as one fold over the windowed documents' evidence rows.

        The rows are gathered in global ``(-score, doc_id)`` order, so
        ``np.bincount`` — which adds its weights in input order into slots
        starting at 0.0 — sums each candidate's ``score · wr`` exactly as
        the reference's per-candidate dict walk does. Candidate
        indexes follow candidate ids, so ``lexsort`` ranks ties on the
        candidate id."""
        width = window_size(window, sum(len(scores) for scores, _, _ in parts))
        if not width:
            return []
        wr = self._wr
        if len(parts) == 1:
            # a lone source's own order is the global order
            ((scores, docs, source),) = parts
            cand, dist, count = self._rows(source, docs[:width])
            weights = np.repeat(scores[:width], count) * wr[dist]
        else:
            ranks = self._window_ranks(parts, width)
            cands = []
            row_weights = []
            row_ranks = []
            for (scores, docs, source), rank in zip(parts, ranks):
                # a source's survivors keep their relative order globally,
                # so its windowed ones are a prefix of them
                kept = int(np.searchsorted(rank, width))
                cand, dist, count = self._rows(source, docs[:kept])
                cands.append(cand)
                row_weights.append(np.repeat(scores[:kept], count) * wr[dist])
                row_ranks.append(np.repeat(rank[:kept], count))
            order = np.argsort(np.concatenate(row_ranks), kind="stable")
            cand = np.concatenate(cands)[order]
            weights = np.concatenate(row_weights)[order]
        support = np.bincount(cand)
        totals = np.bincount(cand, weights=weights)
        seen = np.flatnonzero(support)
        support = support[seen]
        totals = totals[seen]
        if self._normalize:
            totals = totals / support
        positive = totals > 0.0
        seen = seen[positive]
        totals = totals[positive]
        support = support[positive]
        ranked = np.lexsort((seen, -totals))[:top_k]
        cand_ids = self._cand_ids
        return [
            ExpertScore(cand_ids[c], total, n)
            for c, total, n in zip(
                seen[ranked].tolist(), totals[ranked].tolist(), support[ranked].tolist()
            )
        ]

    def _rows(self, source: _Source, docs: _Ints) -> tuple[_Ints, _Ints, _Ints]:
        """*docs*' evidence rows from *source*, with shared candidate
        indexes."""
        cand, dist, count = source.rows(docs)
        return self._shared(source)[cand], dist, count

    @staticmethod
    def _window_ranks(parts: list[_Part], width: int) -> list[_Ints]:
        """Each part's survivors' ranks under the total ``(-score,
        doc_id)`` key, *width* for those outside the window.

        Every part is in that order already, so a stable sort on the
        score alone is exact except inside a run of equal scores that
        mixes sources; the mixed runs that start inside the window are
        re-sorted on doc id (doc ids are unique across sources)."""
        sizes = [len(scores) for scores, _, _ in parts]
        bounds = [0, *accumulate(sizes)]
        neg = -np.concatenate([scores for scores, _, _ in parts])
        order = np.argsort(neg, kind="stable")
        ordered = neg[order]
        run_start = np.empty(len(order), dtype=bool)
        run_start[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        part_of = np.repeat(np.arange(len(parts)), sizes)[order]
        mixed = np.minimum.reduceat(part_of, starts) < np.maximum.reduceat(
            part_of, starts
        )
        mixed &= starts < width
        if mixed.any():
            stops = np.append(starts[1:], len(order))
            slots = _expand(starts[mixed], stops[mixed] - starts[mixed])
            members = order[slots]
            doc_of = np.concatenate([docs for _, docs, _ in parts])
            names = [source.doc_ids for _, _, source in parts]
            doc_ids = [
                names[k][doc]
                for k, doc in zip(part_of[slots].tolist(), doc_of[members].tolist())
            ]
            keyed = sorted(zip(ordered[slots].tolist(), doc_ids, members.tolist()))
            order[slots] = [member for _neg, _doc_id, member in keyed]
        rank = np.full(len(order), width)
        rank[order[:width]] = np.arange(width)
        return [rank[start:stop] for start, stop in zip(bounds, bounds[1:])]

    # -- introspection -------------------------------------------------------------

    @property
    def config(self) -> FinderConfig:
        return self._config

    @property
    def seal_threshold(self) -> int:
        return self._seal_threshold

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

    def evidence_csr(self) -> EvidenceCsr:
        """The whole live resource → supporters relation as one CSR:
        every segment's, oldest first, then the buffer's."""
        parts = [segment.evidence_csr for segment in self._segments]
        if self._buffer.resource_count or not parts:
            parts.append(self._buffer.evidence_csr)
        return concat_evidence(parts)

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
