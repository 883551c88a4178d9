"""The segmented index: the one query path for Eq. 1 → window → Eq. 3.

Every finder is a :class:`SegmentedIndex` (cf. production
expert-mining systems, which absorb half a billion streamed signals this
way — Spasojevic et al.): a cold build is one sealed segment plus an
empty write buffer. The pieces:

* **write buffer** — streamed resources (Eq. 1 term/entity postings plus
  Eq. 3 evidence rows) land in a small mutable :class:`_WriteBuffer`,
  scored with plain dict walks; an ``observe`` touches nothing else;
* **sealed segments** — when the buffer reaches ``seal_threshold``
  resources it seals into an immutable :class:`Segment` that holds
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
summed per-source document frequencies), then each segment scores its
own documents with one numpy kernel (:meth:`Segment.score`): per query
item, ``T[docs] += tf·tw`` and ``E[docs] += (ef·ew)·we``, then
``α·T + (1−α)·E``, keeping positive scores as ``(scores, doc indexes)``
arrays in ``(-score, doc index)`` order. With an absolute window each
segment cuts its own matches to the window. The window cut and the
Eq. 3 fold are columnar too (:meth:`SegmentedIndex._rank`): the windowed
documents' evidence rows are gathered from each segment's evidence
columns in global ``(-score, doc_id)`` order, and ``np.bincount`` sums
``score · wr`` per candidate over one shared candidate index kept in
sorted-id order.

The kernel is exact: doc indexes are unique within a column, so each
fancy-indexed add gives every posting one IEEE addition into its
document's accumulator, in the query's item order with terms before
entities — the object path's order — and the products and the α blend
are the same float operations, elementwise. The per-segment cut is
exact too: each document lives in exactly one source and, within a
segment, doc-index order is doc-id order, so the global top-W is
contained in the union of the per-source top-W. The fold is exact
because ``np.bincount`` adds its weights in input order into slots that
start at 0.0, which is the object path's per-candidate dict walk over
the same rows in the same order. Rankings are therefore
**byte-identical** to :class:`~repro.index.vsm.VectorSpaceRetriever` +
:class:`~repro.core.ranking.ExpertRanker` over the same collection
(``tests/core/test_differential.py`` and ``tests/index/test_columnar.py``
pin this).

Thread model: one thread queries and writes. The live-segment list is
swapped immutably under a lock, so a query holds a consistent snapshot
while a compaction replaces merged runs; sealed segments are never
mutated.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import accumulate
from typing import Any, NamedTuple
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

# Direct submodule imports only — ``repro.index`` is imported by
# ``repro.core``, so pulling core *package* attributes here would cycle.
from repro.core.config import FinderConfig
from repro.core.ranking import ExpertScore
from repro.core.scoring import distance_weight_table, window_size
from repro.index.analyzer import AnalyzedResource
from repro.index.entity_index import EntityIndex, EntityPosting
from repro.index.inverted import InvertedIndex, Posting
from repro.index.vsm import entity_weight

#: default buffer size (in resources) at which the buffer seals
DEFAULT_SEAL_THRESHOLD = 256

#: default tier fanout: a run of this many same-tier segments is merged
DEFAULT_FANOUT = 4

_COMPACTION_MODES = ("synchronous", "manual")

#: evidence rows: ``((candidate_id, distance), ...)`` in stream order
_Rows = tuple[tuple[str, int], ...]

_Ints = npt.NDArray[np.int64]
_Floats = npt.NDArray[np.float64]

#: one segment's matches: ``(scores, doc indexes)`` in ``(-score, doc)`` order
Hits = tuple[_Floats, _Ints]

#: one source's survivors in its own ``(-score, doc)`` order: ``(scores,
#: docs, source)``, where *docs* are a segment's doc indexes, or the write
#: buffer's doc ids when *source* is None
_Part = tuple[_Floats, Any, "Segment | None"]


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

    def rows(self) -> Iterator[tuple[str, list[tuple[Any, ...]]]]:
        """Each key with its postings as ``(doc index, *values)`` tuples
        of Python scalars, in key order then postings order."""
        rows = list(zip(*(column.tolist() for column in self.columns)))
        bounds = self.off.tolist()
        for i, key in enumerate(self.views):
            yield key, rows[bounds[i] : bounds[i + 1]]


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


def evidence_csr(evidence: Mapping[str, Iterable[tuple[str, int]]]) -> EvidenceCsr:
    """*evidence* (resource → ``(candidate id, distance)`` rows, in
    stream order) as an :class:`EvidenceCsr`."""
    candidates = sorted({cid for rows in evidence.values() for cid, _ in rows})
    cand_of = {cid: i for i, cid in enumerate(candidates)}
    off = [0]
    cand: list[int] = []
    dist: list[int] = []
    for rows in evidence.values():
        for cid, distance in rows:
            cand.append(cand_of[cid])
            dist.append(distance)
        off.append(len(cand))
    return EvidenceCsr(
        list(evidence),
        candidates,
        np.array(off, dtype=np.int64),
        np.array(cand, dtype=np.int64),
        np.array(dist, dtype=np.int64),
    )


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


def evidence_rows(csr: EvidenceCsr) -> Iterator[tuple[str, _Rows]]:
    """Each resource of *csr* with its ``(candidate id, distance)`` rows,
    in stream order."""
    candidates = csr.candidates
    rows = list(zip([candidates[c] for c in csr.cand.tolist()], csr.dist.tolist()))
    bounds = csr.off.tolist()
    for i, resource in enumerate(csr.resources):
        yield resource, tuple(rows[bounds[i] : bounds[i + 1]])


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


class Segment:
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
        term_index: InvertedIndex,
        entity_index: EntityIndex,
        evidence: Mapping[str, Iterable[tuple[str, int]]],
    ):
        """Compile a write buffer's posting-object indexes and evidence
        rows (at a seal, a save or the end of a cold build) into columns;
        the objects are not kept."""
        if term_index.doc_ids() != entity_index.doc_ids():
            raise ValueError(
                "term and entity indexes disagree on the segment's doc ids "
                f"({term_index.document_count} vs {entity_index.document_count})"
            )
        doc_ids = sorted(term_index.doc_ids())
        doc_of = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        terms: list[str] = []
        tdoc: list[int] = []
        ttf: list[int] = []
        tlen: list[int] = []
        for term, postings in term_index.items():
            terms.append(term)
            tdoc += [doc_of[p.doc_id] for p in postings]
            ttf += [p.term_frequency for p in postings]
            tlen.append(len(postings))
        entities: list[str] = []
        edoc: list[int] = []
        eef: list[int] = []
        eds: list[float] = []
        elen: list[int] = []
        for uri, entity_postings in entity_index.items():
            entities.append(uri)
            edoc += [doc_of[p.doc_id] for p in entity_postings]
            eef += [p.entity_frequency for p in entity_postings]
            eds += [p.d_score for p in entity_postings]
            elen.append(len(entity_postings))
        # the d_score is folded to we = 1 + dScore once; the posting
        # product at query time is ef · ew · we, the object path's
        # expression
        csr = evidence_csr(evidence)
        doc_ids, first, count = _doc_rows(doc_ids, csr)
        self.segment_id = segment_id
        self._doc_ids: list[str] = doc_ids
        self._term_cols = PostingColumns.of(
            terms,
            _offsets(tlen),
            [np.array(tdoc, dtype=np.int64), np.array(ttf, dtype=np.int64)],
            2,
        )
        self._entity_cols = PostingColumns.of(
            entities,
            _offsets(elen),
            [
                np.array(edoc, dtype=np.int64),
                np.array(eef, dtype=np.int64),
                np.array([entity_weight(d) for d in eds], dtype=np.float64),
                np.array(eds, dtype=np.float64),
            ],
            3,
        )
        self._evidence_cols = (csr, first, count)

    @classmethod
    def from_columns(
        cls,
        segment_id: int,
        doc_ids: list[str],
        terms: PostingColumns,
        entities: PostingColumns,
        evidence: EvidenceCsr,
    ) -> "Segment":
        """Adopt already-built columns: a snapshot's mapped sections or
        a merge's concatenation.

        *doc_ids* must be the segment's indexed doc ids in sorted order
        (the doc-index order the columns use); column values are numpy
        arrays, typically read-only ``np.frombuffer`` views over the
        mapping. Only each document's span of *evidence* is derived.
        """
        doc_ids, first, count = _doc_rows(doc_ids, evidence)
        segment = cls.__new__(cls)
        segment.segment_id = segment_id
        segment._doc_ids = doc_ids
        segment._term_cols = terms
        segment._entity_cols = entities
        segment._evidence_cols = (evidence, first, count)
        return segment

    @classmethod
    def merge(cls, segment_id: int, run: Sequence["Segment"]) -> "Segment":
        """Adjacent segments *run* (oldest first) as one, by concatenating
        their columns: the doc tables are disjoint, so the merged table is
        their sorted merge and each source's doc indexes are renumbered by
        one remap array; postings and evidence rows keep segment order."""
        joined = [doc_id for segment in run for doc_id in segment.doc_ids]
        order = sorted(range(len(joined)), key=joined.__getitem__)
        position = np.empty(len(joined), dtype=np.int64)
        position[order] = np.arange(len(joined))
        bounds = [0, *accumulate(segment.document_count for segment in run)]
        remaps = [position[start:stop] for start, stop in zip(bounds, bounds[1:])]
        return cls.from_columns(
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

    def score(
        self,
        terms: Sequence[tuple[str, float]],
        entities: Sequence[tuple[str, float]],
        alpha: float,
        cut: int | None,
    ) -> Hits:
        """Every positive Eq. 1 match of this segment as ``(scores, doc
        indexes)`` arrays in ``(-score, doc index)`` order, cut to the
        best *cut* when given.

        Per query item, in the query's order, the item's column adds
        ``tf·tw`` into the term accumulator and ``(ef·ew)·we`` into the
        entity accumulator; a column holds each document once, so every
        posting is one IEEE add into its document's slot, exactly as the
        object path's dict walk adds it. The blend runs in place and is
        ``α*T + (1−α)*E``'s operations, elementwise."""
        n_docs = len(self._doc_ids)
        term_acc = np.zeros(n_docs)
        entity_acc = np.zeros(n_docs)
        term_cols = self._term_cols.views
        for term, tw in terms:
            cols = term_cols.get(term)
            if cols is not None:
                docs, tf = cols
                term_acc[docs] += tf * tw
        entity_cols = self._entity_cols.views
        for uri, ew in entities:
            ecols = entity_cols.get(uri)
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
            # doc indexes, as a full sort would. Doc-index order is
            # doc-id order within a segment, so this keeps exactly the
            # segment's share of the global window
            k = len(hits) - cut
            kept = scores >= np.partition(scores, k)[k]
            hits = hits[kept]
            scores = scores[kept]
        order = np.lexsort((hits, -scores))[:cut]
        return scores[order], hits[order]

    def rows(self, docs: _Ints) -> tuple[_Ints, _Ints, _Ints]:
        """The evidence rows of *docs* (doc indexes), document after
        document in the given order: ``(local candidate indexes,
        distances, rows per document)``."""
        csr, first, count = self._evidence_cols
        count = count[docs]
        at = _expand(first[docs], count)
        return csr.cand[at], csr.dist[at], count


class _WriteBuffer:
    """The mutable tail of the collection: plain indexes + evidence rows."""

    __slots__ = ("term_index", "entity_index", "evidence")

    def __init__(self) -> None:
        self.term_index = InvertedIndex()
        self.entity_index = EntityIndex()
        self.evidence: dict[str, _Rows] = {}

    @classmethod
    def thaw(cls, segment: Segment) -> "_WriteBuffer":
        """A buffer holding *segment*'s collection (a snapshot's buffer
        container, mapped as columns) as posting objects and evidence
        rows again. It is small by construction (below the seal
        threshold) and mutable on the very next observe."""
        docs = segment.doc_ids
        buffer = cls()
        buffer.term_index = InvertedIndex.restore(
            docs,
            {
                term: [Posting(docs[doc], tf) for doc, tf in rows]
                for term, rows in segment.term_columns.rows()
            },
        )
        buffer.entity_index = EntityIndex.restore(
            docs,
            {
                uri: [EntityPosting(docs[doc], ef, ds) for doc, ef, _we, ds in rows]
                for uri, rows in segment.entity_columns.rows()
            },
        )
        buffer.evidence = dict(evidence_rows(segment.evidence_csr))
        return buffer

    def compile(self, segment_id: int) -> Segment:
        """The buffer's collection as a columnar segment: a seal, or the
        columns a snapshot writes for the buffer."""
        return Segment(segment_id, self.term_index, self.entity_index, self.evidence)

    @property
    def document_count(self) -> int:
        return self.term_index.document_count

    @property
    def resource_count(self) -> int:
        return len(self.evidence)

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
    ) -> list[tuple[float, str]]:
        """Dict-walk counterpart of :meth:`Segment.score`, as unsorted
        ``(-score, doc_id)`` pairs — the buffer is small and changes on
        every observe, so it is never compiled."""
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
        hits: list[tuple[float, str]] = []
        hit = hits.append
        # repro: lint-ok[determinism] emission order is scratch only —
        # SegmentedIndex sorts the buffer's hits with the total
        # (-score, doc_id) key before any cut
        for doc_id in term_scores.keys() | entity_scores.keys():
            score = (
                alpha * term_scores.get(doc_id, 0.0)
                + one_minus_alpha * entity_scores.get(doc_id, 0.0)
            )
            if score > 0.0:
                hit((-score, doc_id))
        return hits

    def rows(
        self, doc_ids: Sequence[str], cand_of: Mapping[str, int]
    ) -> tuple[_Ints, _Ints, _Ints]:
        """:meth:`Segment.rows` for buffered documents, with candidates
        numbered by *cand_of*."""
        evidence = self.evidence
        cand: list[int] = []
        dist: list[int] = []
        count: list[int] = []
        for doc_id in doc_ids:
            rows = evidence.get(doc_id, ())
            count.append(len(rows))
            for cid, distance in rows:
                cand.append(cand_of[cid])
                dist.append(distance)
        return (
            np.array(cand, dtype=np.int64),
            np.array(dist, dtype=np.int64),
            np.array(count, dtype=np.int64),
        )


class SegmentedIndex:
    """Sealed segments + write buffer behind one query interface.

    Construction: :meth:`from_built` compiles a cold build's resources
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
        #: segment id → its local candidate indexes' shared indexes
        self._cand_maps: dict[int, _Ints] = {}
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
        which compiles once into the base segment (none for an empty
        build). *resources* is consumed before the compile starts."""
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
            index._register(buffer.compile(index._next_id()))
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
        mmap path, via :meth:`Segment.from_columns`) plus an optional
        unsealed buffer, mapped the same way and thawed into a
        :class:`_WriteBuffer`; duplicated resources and out-of-range
        evidence distances are rejected."""
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
            index._buffer = _WriteBuffer.thaw(buffer)
            index._doc_count += buffer.document_count
        return index

    def _register(self, segment: Segment) -> None:
        self._absorb_ids(segment.resources, f"segment {segment.segment_id}")
        self._validate_distances(segment.distances)
        self._segments = [*self._segments, segment]
        self._doc_count += segment.document_count
        if not self._admit(segment.candidates):
            self._cand_maps[segment.segment_id] = self._cand_map(segment)

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

    def _admit(self, candidate_ids: Iterable[str]) -> bool:
        """Add the unseen *candidate_ids* to the shared candidate table,
        keeping it in sorted-id order; True when that renumbered every
        live segment's map."""
        fresh = set(candidate_ids).difference(self._cand_of)
        if not fresh:
            return False
        self._cand_ids = sorted(fresh.union(self._cand_ids))
        self._cand_of = {cid: i for i, cid in enumerate(self._cand_ids)}
        self._cand_maps = {
            segment.segment_id: self._cand_map(segment) for segment in self._segments
        }
        return True

    def _cand_map(self, segment: Segment) -> _Ints:
        cand_of = self._cand_of
        return np.array([cand_of[cid] for cid in segment.candidates], dtype=np.int64)

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
        segment = buffer.compile(self._next_id())
        self._cand_maps[segment.segment_id] = self._cand_map(segment)
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
        self._cand_maps[merged.segment_id] = self._cand_map(merged)
        with self._lock:
            live = self._segments
            self._segments = [*live[:start], merged, *live[stop:]]
        for segment in run:
            del self._cand_maps[segment.segment_id]
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
    ) -> list[ExpertScore]:
        """Rank the candidate experts for an analyzed *query* across all
        live segments plus the buffer — byte-identical to the object
        path over the same collection."""
        cut = window_cut(alpha, window)
        terms, entities = self._query_weights(query, alpha)
        return self._rank(self._collect(terms, entities, alpha, cut), window, top_k)

    def _collect(
        self,
        terms: Sequence[tuple[str, float]],
        entities: Sequence[tuple[str, float]],
        alpha: float,
        cut: int | None,
    ) -> list[_Part]:
        """The buffer's and every live segment's share of the window: each
        source's best *cut* matches (all of them when *cut* is None) in
        its own ``(-score, doc)`` order; sources without a match are left
        out."""
        parts: list[_Part] = []
        hits = self._buffer.score(terms, entities, alpha)
        if hits:
            hits.sort()
            if cut is not None:
                del hits[cut:]
            parts.append(
                (np.array([-neg for neg, _ in hits]), [doc for _, doc in hits], None)
            )
        for segment in self._segments:
            scores, docs = segment.score(terms, entities, alpha, cut)
            if len(scores):
                parts.append((scores, docs, segment))
        return parts

    def _rank(
        self, parts: list[_Part], window: int | float | None, top_k: int | None
    ) -> list[ExpertScore]:
        """The global window cut over every source's survivors, then Eq. 3
        as one fold over the windowed documents' evidence rows.

        The rows are gathered in global ``(-score, doc_id)`` order, so
        ``np.bincount`` — which adds its weights in input order into slots
        starting at 0.0 — sums each candidate's ``score · wr`` exactly as
        :meth:`~repro.core.ranking.ExpertRanker.rank` does. Candidate
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

    def _rows(self, source: Segment | None, docs: Any) -> tuple[_Ints, _Ints, _Ints]:
        """*docs*' evidence rows from *source* (None: the buffer), with
        shared candidate indexes."""
        if source is None:
            return self._buffer.rows(docs, self._cand_of)
        cand, dist, count = source.rows(docs)
        return self._cand_maps[source.segment_id][cand], dist, count

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
            # a buffer survivor's "doc" is its position in the id list
            doc_of = np.concatenate(
                [docs if source is not None else np.arange(len(docs))
                 for _, docs, source in parts]
            )
            names = [
                docs if source is None else source.doc_ids for _, docs, source in parts
            ]
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
        if self._buffer.resource_count:
            parts.append(evidence_csr(self._buffer.evidence))
        if not parts:
            return evidence_csr({})
        return concat_evidence(parts)

    def evidence(self) -> Iterator[tuple[str, _Rows]]:
        """Each admitted resource with its ``(candidate id, distance)``
        rows, decoded from :meth:`evidence_csr` (tests and tooling; no
        query reads it)."""
        return evidence_rows(self.evidence_csr())

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
