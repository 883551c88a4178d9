"""The reference ranking every served ranking is checked against.

:class:`~tests.reference.vsm.VectorSpaceRetriever` (Eq. 1) and
:class:`~tests.reference.ranking.ExpertRanker` (window + Eq. 3) score
with plain dicts, without segments or numpy columns, and no query is
served through them. :func:`merged_slice` rebuilds a segmented index's
whole live collection as posting objects and evidence rows (a served
index keeps only columns, the write buffer's included), and
:class:`Oracle` runs the pair over it, so tests and
``benchmarks/bench_scale.py`` compare ``finder.find_experts`` against it
with ``==``: exact floats, support counts and tie breaks.
:func:`oracle_experts` is the one-need shorthand. :func:`posting_rows`,
:func:`evidence_rows` and :func:`evidence_of` decode columns into
Python rows for it and for the tests; no served path decodes them.
"""

from __future__ import annotations

from repro.core.need import ExpertiseNeed
from tests.reference.entity_index import EntityIndex, EntityPosting
from tests.reference.inverted import InvertedIndex, Posting
from tests.reference.ranking import ExpertRanker
from tests.reference.vsm import VectorSpaceRetriever

#: the label the engine-parametrised tests give the oracle, next to
#: "columnar" for the finder's own served path
ORACLE = "object"


def posting_rows(group):
    """Each key of *group* (a :class:`~repro.index.segments.PostingColumns`)
    with its postings as ``(doc index, *values)`` tuples of Python
    scalars, in key order then postings order."""
    rows = list(zip(*(column.tolist() for column in group.columns)))
    bounds = group.off.tolist()
    for i, key in enumerate(group.views):
        yield key, rows[bounds[i] : bounds[i + 1]]


def evidence_rows(csr):
    """Each resource of *csr* (an :class:`~repro.index.segments.EvidenceCsr`)
    with its ``(candidate id, distance)`` rows, in stream order."""
    candidates = csr.candidates
    rows = list(zip([candidates[c] for c in csr.cand.tolist()], csr.dist.tolist()))
    bounds = csr.off.tolist()
    for i, resource in enumerate(csr.resources):
        yield resource, tuple(rows[bounds[i] : bounds[i + 1]])


def evidence_of(finder):
    """*finder*'s whole resource → supporters relation as a dict, decoded
    from its index's evidence columns."""
    return dict(evidence_rows(finder.segmented_index.evidence_csr()))


def merged_slice(index):
    """*index*'s (a :class:`~repro.index.segments.SegmentedIndex`) live
    collection as one ``(term_index, entity_index, evidence)`` triple:
    every segment's postings decoded from its columns, oldest segment
    first, then the write buffer's, decoded the same way from the
    segment it would seal into — the postings order of one index filled
    with the whole stream — and the evidence relation in stream order."""
    doc_ids = []
    term_postings = {}
    entity_postings = {}
    buffer = index.write_buffer.as_segment(-1)
    for segment in (*index.iter_segments(), buffer):
        docs = segment.doc_ids
        doc_ids += docs
        for term, rows in posting_rows(segment.term_columns):
            term_postings.setdefault(term, []).extend(
                Posting(docs[doc], tf) for doc, tf in rows
            )
        for uri, rows in posting_rows(segment.entity_columns):
            entity_postings.setdefault(uri, []).extend(
                EntityPosting(docs[doc], ef, ds) for doc, ef, _we, ds in rows
            )
    return (
        InvertedIndex.restore(doc_ids, term_postings),
        EntityIndex.restore(doc_ids, entity_postings),
        dict(evidence_rows(index.evidence_csr())),
    )


class Oracle:
    """The reference path over *finder*'s collection as it stands now:
    the merged slice is decoded once, so one instance ranks many needs.
    Build a new one after the collection changes."""

    def __init__(self, finder):
        self._finder = finder
        term_index, entity_index, self._evidence = merged_slice(
            finder.segmented_index
        )
        self._retriever = VectorSpaceRetriever(
            term_index, entity_index, idf_exponent=finder.config.idf_exponent
        )

    def rank(self, need, *, top_k=None, alpha=None, window=...):
        """What ``finder.find_experts(need, ...)`` must return, with the
        same overrides (``window=None`` means "no window"; leave it unset
        for the configured one)."""
        config = self._finder.config
        if window is not ...:
            config = config.with_(window=window)
        text = need.text if isinstance(need, ExpertiseNeed) else need
        query = self._finder._analyzer.analyze("__query__", text, language="en")
        matches = self._retriever.retrieve(
            query, config.alpha if alpha is None else alpha
        )
        ranked = ExpertRanker(self._evidence, config).rank(matches)
        return ranked if top_k is None else ranked[:top_k]


def oracle_experts(finder, need, **overrides):
    """What ``finder.find_experts(need, **overrides)`` must return,
    computed on the reference path (see :meth:`Oracle.rank`)."""
    return Oracle(finder).rank(need, **overrides)


def ranked_on(finder, engine, need, **overrides):
    """*need* ranked by *finder*, or by the oracle over *finder*'s
    collection when *engine* is :data:`ORACLE`."""
    if engine == ORACLE:
        return oracle_experts(finder, need, **overrides)
    return finder.find_experts(need, **overrides)
