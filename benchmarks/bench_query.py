"""Query benchmark: the segments' numpy Eq. 1 kernel and columnar Eq. 3
fold vs the oracle.

Measures the two things the served query path claims:

* **equivalence** — the served path (each segment's
  :meth:`~repro.index.segments.Segment.score` kernel, the window cut
  and the Eq. 3 fold) returns rankings byte-identical to the oracle (a
  ``VectorSpaceRetriever`` + ``ExpertRanker`` built directly over the
  finder's merged collection) for the full query set, across absolute,
  fractional, and disabled windows (asserted unconditionally, at every
  scale);
* **speed** — service-level rates (analyzer + Eq. 1-3, every query a
  cache miss) and engine-level rates: pre-analyzed queries straight into
  the finder's :class:`~repro.index.segments.SegmentedIndex`, next to
  the oracle's dict walk over the same queries. The numbers are
  recorded, not gated.

Results go to ``benchmarks/results/BENCH_query.json`` in the shared
machine-readable schema (see ``conftest.save_json``) plus a rendered
text report. The service level times window 10, a serving-style window
well below the match count, so every segment cuts its matches before
the merge. The engine level also times the paper's window of 100 and a
fractional window, which no segment can cut before the merge, so the
window merge and the Eq. 3 fold run over many more documents.
"""

from __future__ import annotations

import time

from repro.core.config import FinderConfig
from repro.core.service import ExpertSearchService
from tests.oracle import merged_slice
from tests.reference.ranking import ExpertRanker
from tests.reference.vsm import VectorSpaceRetriever

#: timed service-level passes over the query set (every pass uncached)
_ROUNDS = 15
#: interleaved engine-level rounds; best-of to shed scheduler noise
_ENGINE_ROUNDS = 9
#: the Eq. 1 window under test (see module docstring)
_WINDOW = 10
#: the windows timed at engine level: serving, the paper's, fractional
_ENGINE_WINDOWS = (_WINDOW, 100, 0.25)


def bench_query(ctx, save_result, save_json):
    dataset = ctx.dataset
    queries = list(dataset.queries)
    # the runner's finder carries the paper's window, so the window
    # under test is passed per call, not baked in
    finder = ctx.runner.finder(None, FinderConfig())

    analyzed = [
        finder._analyzer.analyze("__query__", need.text, language="en")
        for need in queries
    ]

    # equivalence first, and unconditionally: a fast path is only a fast
    # path if it returns the reference ranking bit for bit — across
    # window shapes: absolute windows the segments cut, fractional and
    # None windows they do not
    windows = (_WINDOW, 5, 1000, 0.25, None)
    config = finder.config
    term_index, entity_index, evidence = merged_slice(finder.segmented_index)
    retriever = VectorSpaceRetriever(
        term_index, entity_index, idf_exponent=config.idf_exponent
    )
    oracle = [
        ExpertRanker(evidence, config.with_(window=window)).rank(
            retriever.retrieve(query, config.alpha)
        )
        for query in analyzed
        for window in windows
    ]
    ranked = [
        finder.find_experts(need, window=window)
        for need in queries
        for window in windows
    ]
    assert ranked == oracle, "the served ranking diverged from the oracle"

    service = ExpertSearchService(finder, cache_size=0)  # every query a miss
    service.find_experts_batch(queries, top_k=10, window=_WINDOW)  # warm
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        service.find_experts_batch(queries, top_k=10, window=_WINDOW)
    elapsed = time.perf_counter() - t0
    stats = service.stats
    service_qps = len(queries) * _ROUNDS / elapsed

    # engine level: pre-analyzed queries, scoring only. The service rate
    # above includes the per-query analyzer cost; this is the rate at
    # which the segmented index itself evaluates Eq. 1-3, next to the
    # oracle's dict walk. Rounds interleave the two so drift hits both
    # alike, and best-of sheds scheduler noise.
    index = finder.segmented_index

    def kernel_pass(window) -> float:
        t0 = time.perf_counter()
        for query in analyzed:
            index.find_experts(query, alpha=config.alpha, window=window, top_k=10)
        return time.perf_counter() - t0

    def oracle_pass(ranker) -> float:
        t0 = time.perf_counter()
        for query in analyzed:
            ranker.rank(retriever.retrieve(query, config.alpha))[:10]
        return time.perf_counter() - t0

    engine = {}
    for window in _ENGINE_WINDOWS:
        ranker = ExpertRanker(evidence, config.with_(window=window))
        best_kernel = best_oracle = float("inf")
        for _ in range(_ENGINE_ROUNDS):
            best_kernel = min(best_kernel, kernel_pass(window))
            best_oracle = min(best_oracle, oracle_pass(ranker))
        engine[window] = (len(analyzed) / best_kernel, len(analyzed) / best_oracle)
    engine_qps, oracle_qps = engine[_WINDOW]
    speedup = engine_qps / oracle_qps
    candidates = len(finder.evidence_counts)

    lines = [
        "Query path — the numpy Eq. 1 kernel and Eq. 3 fold vs the oracle "
        "(oracle-checked)",
        f"dataset: scale={dataset.scale.value} seed={dataset.seed} "
        f"({index.document_count} docs, {candidates} candidates, "
        f"{len(queries)} queries x {_ROUNDS} uncached rounds, "
        f"window={_WINDOW})",
        "",
        "service level (analyze + score + rank):",
        f"served path:          {service_qps:8.0f} q/s   "
        f"p50 {stats.p50_latency * 1e6:7.1f}µs   "
        f"p95 {stats.p95_latency * 1e6:7.1f}µs",
        "",
        "engine level (pre-analyzed, Eq. 1-3, top_k=10):",
        "window    kernel q/s   oracle q/s   kernel vs oracle",
        *(
            f"{window!s:<8}{kernel:11.0f}{oracle:13.0f}{kernel / oracle:17.2f}x"
            for window, (kernel, oracle) in engine.items()
        ),
    ]
    save_result("query", "\n".join(lines))
    save_json(
        "query",
        dataset,
        {
            "queries": len(queries),
            "rounds": _ROUNDS,
            "window": _WINDOW,
            "documents": index.document_count,
            "candidates": candidates,
            "uncached_qps": service_qps,
            "p50_latency_s": stats.p50_latency,
            "p95_latency_s": stats.p95_latency,
            "engine_qps": engine_qps,
            "oracle_qps": oracle_qps,
            "kernel_vs_oracle": speedup,
            "engine_by_window": {
                str(window): {
                    "engine_qps": kernel,
                    "oracle_qps": oracle,
                    "kernel_vs_oracle": kernel / oracle,
                }
                for window, (kernel, oracle) in engine.items()
            },
        },
    )
