"""The reference ranking every served ranking is checked against.

:class:`~repro.index.vsm.VectorSpaceRetriever` (Eq. 1) and
:class:`~repro.core.ranking.ExpertRanker` (window + Eq. 3) score with
plain dicts, without segments or numpy columns, and no query is
served through them. :func:`oracle_experts` runs the pair over a
finder's whole live collection (``segmented_index.merged_slice()`` and
``evidence_of``), so tests compare ``finder.find_experts`` against it
with ``==``: exact floats, support counts and tie breaks.
"""

from __future__ import annotations

from repro.core.need import ExpertiseNeed
from repro.core.ranking import ExpertRanker
from repro.index.vsm import VectorSpaceRetriever

#: the label the engine-parametrised tests give the oracle, next to
#: "columnar" for the finder's own served path
ORACLE = "object"


def oracle_experts(finder, need, *, top_k=None, alpha=None, window=...):
    """What ``finder.find_experts(need, ...)`` must return, with the same
    overrides (``window=None`` means "no window"; leave it unset for the
    configured one), computed on the reference path."""
    config = finder.config
    if window is not ...:
        config = config.with_(window=window)
    term_index, entity_index, _evidence = finder.segmented_index.merged_slice()
    retriever = VectorSpaceRetriever(
        term_index, entity_index, idf_exponent=config.idf_exponent
    )
    text = need.text if isinstance(need, ExpertiseNeed) else need
    query = finder._analyzer.analyze("__query__", text, language="en")
    matches = retriever.retrieve(query, config.alpha if alpha is None else alpha)
    ranked = ExpertRanker(finder.evidence_of, config).rank(matches)
    return ranked if top_k is None else ranked[:top_k]


def ranked_on(finder, engine, need, **overrides):
    """*need* ranked by *finder*, or by the oracle over *finder*'s
    collection when *engine* is :data:`ORACLE`."""
    if engine == ORACLE:
        return oracle_experts(finder, need, **overrides)
    return finder.find_experts(need, **overrides)
