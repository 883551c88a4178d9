"""Query-engine benchmark: the segmented columnar path vs block-max
pruned evaluation, both checked against the reference path.

Measures the two claims the engines make:

* **equivalence** — both engines return rankings byte-identical to the
  oracle (a ``VectorSpaceRetriever`` + ``ExpertRanker`` built directly
  over the finder's merged collection) for the full query set, across
  absolute, fractional, and disabled windows (asserted unconditionally,
  at every scale), and pruned evaluation never silently falls back for
  an absolute window;
* **pruned throughput** — with the Eq. 1 window at 10, block-max
  pruning must evaluate queries at ≥1.5× the exhaustive columnar rate
  while skipping a nonzero fraction of candidate blocks.

The QPS threshold is asserted on machines with ≥4 cores, where timing
noise is low enough to hold it; the measured numbers are always
recorded. Service-level rates (analyzer + Eq. 3 included) and
engine-level rates (pre-analyzed queries straight into the finder's
:class:`~repro.index.segments.SegmentedIndex`, scoring only — where
pruning's savings actually live) both go to
``benchmarks/results/BENCH_query.json`` in the shared machine-readable
schema (see ``conftest.save_json``) plus a rendered text report.

The benchmark config pins ``window=10``: pruning can only skip blocks
whose upper bound cannot reach the top-``window`` floor, so a window
comparable to the matched-document count (e.g. the config default of 100
at the tiny scale) leaves almost nothing to skip — the interesting
serving regime is a window well below the match count.
"""

from __future__ import annotations

import os
import time

from repro.core.config import FinderConfig
from repro.core.ranking import ExpertRanker
from repro.core.service import ExpertSearchService
from repro.index.vsm import VectorSpaceRetriever

#: timed service-level passes over the query set (every pass uncached)
_ROUNDS = 15
#: interleaved engine-level rounds; best-of to shed scheduler noise
_ENGINE_ROUNDS = 9
#: the Eq. 1 window under test (see module docstring)
_WINDOW = 10


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
    # window shapes, including the fractional/None shapes the pruned
    # mode must route to its exhaustive fallback
    windows = (_WINDOW, 5, 1000, 0.25, None)
    config = finder.config
    term_index, entity_index, _evidence = finder.segmented_index.merged_slice()
    retriever = VectorSpaceRetriever(
        term_index, entity_index, idf_exponent=config.idf_exponent
    )
    oracle = [
        ExpertRanker(finder.evidence_of, config.with_(window=window)).rank(
            retriever.retrieve(query, config.alpha)
        )
        for query in analyzed
        for window in windows
    ]
    for engine in ("columnar", "columnar-pruned"):
        finder.engine = engine
        ranked = [
            finder.find_experts(need, window=window)
            for need in queries
            for window in windows
        ]
        assert ranked == oracle, f"{engine} ranking diverged from the oracle"
    # loud failure on silent fallback: every absolute window must have
    # taken the block-max path, every fractional/None one the fallback
    pstats = finder.pruning_stats
    absolute = sum(1 for w in windows if type(w) is int) * len(queries)
    fractional = len(queries) * len(windows) - absolute
    assert pstats.pruned_queries == absolute, (
        f"{absolute - pstats.pruned_queries} absolute-window queries "
        f"silently fell back to exhaustive evaluation"
    )
    assert pstats.fallback_queries == fractional

    def measure(engine: str) -> dict:
        finder.engine = engine
        service = ExpertSearchService(finder, cache_size=0)  # every query a miss
        service.find_experts_batch(queries, top_k=10, window=_WINDOW)  # warm
        t0 = time.perf_counter()
        for _ in range(_ROUNDS):
            service.find_experts_batch(queries, top_k=10, window=_WINDOW)
        elapsed = time.perf_counter() - t0
        stats = service.stats
        return {
            "uncached_qps": len(queries) * _ROUNDS / elapsed,
            "p50_latency_s": stats.p50_latency,
            "p95_latency_s": stats.p95_latency,
        }

    columnar_m = measure("columnar")
    pruned_m = measure("columnar-pruned")

    # engine-level timing: pre-analyzed queries, scoring only. The
    # service rate above buries pruning's savings under the per-query
    # analyzer cost; this is the rate at which the segmented index
    # itself evaluates Eq. 1-3. Rounds interleave the two modes so drift
    # hits both alike, and best-of sheds scheduler noise.
    index = finder.segmented_index
    for query in analyzed:  # build the per-column records outside timing
        index.find_experts(query, alpha=0.6, window=_WINDOW, pruned=True)
    index.pruning_stats.reset()

    def engine_pass(pruned: bool) -> float:
        t0 = time.perf_counter()
        for query in analyzed:
            index.find_experts(
                query, alpha=0.6, window=_WINDOW, top_k=10, pruned=pruned
            )
        return time.perf_counter() - t0

    best_exhaustive = best_pruned = float("inf")
    for _ in range(_ENGINE_ROUNDS):
        best_exhaustive = min(best_exhaustive, engine_pass(False))
        best_pruned = min(best_pruned, engine_pass(True))
    engine_columnar_qps = len(analyzed) / best_exhaustive
    engine_pruned_qps = len(analyzed) / best_pruned
    pruned_speedup = engine_pruned_qps / engine_columnar_qps
    skip_rate = index.pruning_stats.skip_rate
    candidates = len(finder.evidence_counts)

    lines = [
        "Query engines — columnar vs block-max pruned (oracle-checked)",
        f"dataset: scale={dataset.scale.value} seed={dataset.seed} "
        f"({index.document_count} docs, {candidates} candidates, "
        f"{len(queries)} queries x {_ROUNDS} uncached rounds, "
        f"window={_WINDOW})",
        "",
        "service level (analyze + score + rank):",
        f"columnar (segments):  {columnar_m['uncached_qps']:8.0f} q/s   "
        f"p50 {columnar_m['p50_latency_s'] * 1e6:7.1f}µs   "
        f"p95 {columnar_m['p95_latency_s'] * 1e6:7.1f}µs",
        f"columnar-pruned:      {pruned_m['uncached_qps']:8.0f} q/s   "
        f"p50 {pruned_m['p50_latency_s'] * 1e6:7.1f}µs   "
        f"p95 {pruned_m['p95_latency_s'] * 1e6:7.1f}µs",
        "",
        "engine level (pre-analyzed, scoring only):",
        f"columnar exhaustive:  {engine_columnar_qps:8.0f} q/s",
        f"columnar pruned:      {engine_pruned_qps:8.0f} q/s   "
        f"({skip_rate:.0%} of blocks skipped)",
        f"pruned vs exhaustive: {pruned_speedup:7.2f}x",
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
            "columnar_uncached_qps": columnar_m["uncached_qps"],
            "columnar_p50_latency_s": columnar_m["p50_latency_s"],
            "columnar_p95_latency_s": columnar_m["p95_latency_s"],
            "pruned_uncached_qps": pruned_m["uncached_qps"],
            "pruned_p50_latency_s": pruned_m["p50_latency_s"],
            "pruned_p95_latency_s": pruned_m["p95_latency_s"],
            "engine_columnar_qps": engine_columnar_qps,
            "engine_pruned_qps": engine_pruned_qps,
            "pruned_speedup": pruned_speedup,
            "block_skip_rate": skip_rate,
            "block_span": index.block_span,
        },
    )

    finder.engine = "columnar"  # the finder is shared across benchmarks

    assert skip_rate > 0.0, "pruned mode never skipped a block"
    cpu_count = os.cpu_count() or 1
    if cpu_count >= 4:
        assert pruned_speedup >= 1.5, (
            f"pruned ({engine_pruned_qps:.0f} q/s) not ≥1.5x exhaustive "
            f"({engine_columnar_qps:.0f} q/s)"
        )
