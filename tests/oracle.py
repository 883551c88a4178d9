"""The reference ranking every served ranking is checked against.

:class:`~repro.index.vsm.VectorSpaceRetriever` (Eq. 1) and
:class:`~repro.core.ranking.ExpertRanker` (window + Eq. 3) score with
plain dicts, without segments or numpy columns, and no query is
served through them. :func:`merged_slice` rebuilds a segmented index's
whole live collection as posting objects and evidence rows (a served
index keeps only columns, the write buffer's included), and
:func:`oracle_experts` runs the pair over it, so tests compare
``finder.find_experts`` against it with ``==``: exact floats, support
counts and tie breaks. The query and streaming benchmarks use the same
glue.
"""

from __future__ import annotations

from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertRanker
from repro.index.entity_index import EntityIndex, EntityPosting
from repro.index.inverted import InvertedIndex, Posting
from repro.index.vsm import VectorSpaceRetriever

#: the label the engine-parametrised tests give the oracle, next to
#: "columnar" for the finder's own served path
ORACLE = "object"


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
        for term, rows in segment.term_columns.rows():
            term_postings.setdefault(term, []).extend(
                Posting(docs[doc], tf) for doc, tf in rows
            )
        for uri, rows in segment.entity_columns.rows():
            entity_postings.setdefault(uri, []).extend(
                EntityPosting(docs[doc], ef, ds) for doc, ef, _we, ds in rows
            )
    return (
        InvertedIndex.restore(doc_ids, term_postings),
        EntityIndex.restore(doc_ids, entity_postings),
        dict(index.evidence()),
    )


def oracle_experts(finder, need, *, top_k=None, alpha=None, window=...):
    """What ``finder.find_experts(need, ...)`` must return, with the same
    overrides (``window=None`` means "no window"; leave it unset for the
    configured one), computed on the reference path."""
    config = finder.config
    if window is not ...:
        config = config.with_(window=window)
    term_index, entity_index, evidence = merged_slice(finder.segmented_index)
    retriever = VectorSpaceRetriever(
        term_index, entity_index, idf_exponent=config.idf_exponent
    )
    text = need.text if isinstance(need, ExpertiseNeed) else need
    query = finder._analyzer.analyze("__query__", text, language="en")
    matches = retriever.retrieve(query, config.alpha if alpha is None else alpha)
    ranked = ExpertRanker(evidence, config).rank(matches)
    return ranked if top_k is None else ranked[:top_k]


def ranked_on(finder, engine, need, **overrides):
    """*need* ranked by *finder*, or by the oracle over *finder*'s
    collection when *engine* is :data:`ORACLE`."""
    if engine == ORACLE:
        return oracle_experts(finder, need, **overrides)
    return finder.find_experts(need, **overrides)
