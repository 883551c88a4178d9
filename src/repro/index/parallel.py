"""Building blocks for the cold-build pipeline.

Analyzing raw node text into :class:`AnalyzedResource` objects (Porter
stemming + entity annotation, pure CPU) dominates a cold build and is
embarrassingly parallel:

* :func:`analyze_tasks` — run ``(doc_id, text, language)`` tasks through
  a :class:`ResourceAnalyzer`, chunked across a ``ProcessPoolExecutor``,
  results returned in task order;
* :func:`build_indexes` — fill one term + one entity index serially
  (shipping per-chunk postings back from a pool costs more than filling
  them in place).

Determinism: the analyzer is a pure function of its input, chunks are
contiguous slices, and results are reassembled in submission order, so
the output is identical to the serial path no matter how many workers
run — ``workers=1`` short-circuits to the exact serial loop without
touching multiprocessing at all.

Worker processes are created with the ``fork`` start method so they
inherit the parent's analyzer (and its knowledge base) by copy-on-write
instead of pickling it. On platforms without ``fork`` an
*analyzer_factory* — a picklable zero-argument callable rebuilding an
equivalent analyzer — is required for parallel analysis; without one the
stage silently degrades to serial.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.index.analyzer import AnalyzedResource, ResourceAnalyzer
from repro.index.entity_index import EntityIndex
from repro.index.inverted import InvertedIndex

#: one analysis task: (doc id, raw text, platform language annotation or None)
AnalysisTask = tuple[str, str, str | None]

#: default tasks per worker dispatch — large enough to amortize pickling,
#: small enough to load-balance a few thousand nodes over 4–16 workers
DEFAULT_CHUNK_SIZE = 256

#: analyzer inherited by fork-started workers (set just before the pool
#: is created, cleared right after; never used in the serial path)
_WORKER_ANALYZER: ResourceAnalyzer | None = None


def _check_pool_args(workers: int, chunk_size: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


def _chunked(items: Sequence, chunk_size: int) -> list[Sequence]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def _init_worker_from_factory(factory: Callable[[], ResourceAnalyzer]) -> None:
    global _WORKER_ANALYZER
    _WORKER_ANALYZER = factory()


def _analyze_chunk(chunk: Sequence[AnalysisTask]) -> list[AnalyzedResource]:
    analyzer = _WORKER_ANALYZER
    if analyzer is None:  # pragma: no cover - misconfigured pool
        raise RuntimeError("worker has no analyzer (fork inheritance failed)")
    return [
        analyzer.analyze(doc_id, text, language=language)
        for doc_id, text, language in chunk
    ]


def analyze_tasks(
    analyzer: ResourceAnalyzer,
    tasks: Sequence[AnalysisTask],
    *,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    analyzer_factory: Callable[[], ResourceAnalyzer] | None = None,
) -> list[AnalyzedResource]:
    """Analyze *tasks*, returning results in task order.

    ``workers=1`` (the default) runs the exact serial loop in-process.
    With more workers, contiguous chunks of *chunk_size* tasks are
    dispatched to a process pool; results are byte-identical to the
    serial run because the analyzer is deterministic and order is
    preserved.
    """
    _check_pool_args(workers, chunk_size)
    if workers == 1 or len(tasks) <= chunk_size:
        return [
            analyzer.analyze(doc_id, text, language=language)
            for doc_id, text, language in tasks
        ]

    global _WORKER_ANALYZER
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        initializer, initargs = None, ()
    elif analyzer_factory is not None:  # pragma: no cover - non-fork platforms
        context = multiprocessing.get_context()
        initializer, initargs = _init_worker_from_factory, (analyzer_factory,)
    else:  # pragma: no cover - non-fork platforms
        # no way to get an analyzer into spawned workers: degrade to serial
        return analyze_tasks(analyzer, tasks, workers=1, chunk_size=chunk_size)

    _WORKER_ANALYZER = analyzer
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            results: list[AnalyzedResource] = []
            for chunk_result in pool.map(_analyze_chunk, _chunked(tasks, chunk_size)):
                results.extend(chunk_result)
            return results
    finally:
        _WORKER_ANALYZER = None


def build_indexes(
    documents: Sequence[AnalyzedResource],
) -> tuple[InvertedIndex, EntityIndex]:
    """Index *documents*, in order, into a (term index, entity index)
    pair."""
    term_index = InvertedIndex()
    entity_index = EntityIndex()
    for document in documents:
        term_index.add_document(document.doc_id, document.term_counts)
        entity_index.add_document(document.doc_id, document.entity_counts)
    return term_index, entity_index
