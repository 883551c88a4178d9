"""Cold-build benchmark: the parallel pipeline vs the serial path.

Measures the three-stage cold build (shared-frontier gathering, parallel
text/entity analysis, serial index fill) end to end:

* **equivalence** — the parallel build must produce rankings identical
  to the serial build for every query (always asserted, any core count);
* **speedup** — with ≥4 workers on a ≥4-core machine the parallel cold
  build must be at least 2× faster than the serial one (asserted only
  when the hardware can deliver it; the numbers are recorded either way).
  An untimed build runs first, so neither timed build pays the process's
  one-off costs (lazy imports, the analyzer's word memo) alone.

Also times the sharded corpus analysis (``ParallelCorpusAnalyzer``) on
the merged graph — the dominant cost of ``build_dataset``.

Results go to ``benchmarks/results/build.txt`` (human-readable) and
``benchmarks/results/BENCH_build.json`` (machine-readable, uploaded as
a CI artifact so the perf trajectory accumulates across commits).
``REPRO_BUILD_WORKERS`` overrides the worker count (default: all cores,
at least 2 so the parallel path is always exercised, at most 8).
"""

from __future__ import annotations

import os
import time

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.extraction.crawler import ParallelCorpusAnalyzer
from repro.synthetic.dataset import default_analyzer


def _worker_count() -> int:
    override = os.environ.get("REPRO_BUILD_WORKERS", "").strip()
    if override:
        return max(1, int(override))
    return min(max(os.cpu_count() or 1, 2), 8)


def bench_build(ctx, save_result, save_json):
    dataset = ctx.dataset
    graph = dataset.merged_graph
    candidates = dataset.candidates_for(None)
    queries = list(dataset.queries)
    workers = _worker_count()
    cores = os.cpu_count() or 1

    # -- cold finder build: gather + analyze + index, no pre-built corpus --
    # one untimed build first: the lazy imports (numpy with the segment
    # compiler) and the analyzer's word memo are one-off costs, which
    # the first timed build would otherwise pay alone (the pooled build's
    # forked workers inherit the memo the build before them filled)
    ExpertFinder.build(graph, candidates, dataset.analyzer, FinderConfig())

    t0 = time.perf_counter()
    serial = ExpertFinder.build(graph, candidates, dataset.analyzer, FinderConfig())
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = ExpertFinder.build(
        graph,
        candidates,
        dataset.analyzer,
        FinderConfig(),
        workers=workers,
        analyzer_factory=default_analyzer,
    )
    parallel_s = time.perf_counter() - t0

    # determinism guarantee: identical rankings, every query, any workers
    for need in queries:
        assert parallel.find_experts(need) == serial.find_experts(need), need

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    # -- sharded corpus analysis over the merged graph --
    t0 = time.perf_counter()
    serial_corpus = ParallelCorpusAnalyzer(dataset.analyzer).analyze_graph(graph)
    corpus_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel_corpus = ParallelCorpusAnalyzer(
        dataset.analyzer, workers=workers, analyzer_factory=default_analyzer
    ).analyze_graph(graph)
    corpus_parallel_s = time.perf_counter() - t0
    # same analyses *and* same node order (order fixes index determinism)
    assert list(parallel_corpus) == list(serial_corpus)
    assert parallel_corpus == serial_corpus
    corpus_speedup = (
        corpus_serial_s / corpus_parallel_s if corpus_parallel_s > 0 else float("inf")
    )

    ss, ps = serial.build_stats, parallel.build_stats
    lines = [
        "Cold build — parallel pipeline vs serial path",
        f"dataset: scale={dataset.scale.value} seed={dataset.seed} "
        f"({ss.nodes} nodes, {ss.indexed} indexed), "
        f"{cores} cores, {workers} workers",
        "",
        f"serial cold build:    {serial_s:8.3f}s  ({ss.render()})",
        f"parallel cold build:  {parallel_s:8.3f}s  ({ps.render()})",
        f"cold-build speedup:   {speedup:8.2f}x",
        "",
        f"serial corpus analysis:    {corpus_serial_s:8.3f}s "
        f"({len(serial_corpus)} nodes)",
        f"parallel corpus analysis:  {corpus_parallel_s:8.3f}s",
        f"corpus-analysis speedup:   {corpus_speedup:8.2f}x",
        "",
        f"rankings identical over {len(queries)} queries: yes",
    ]
    save_result("build", "\n".join(lines))
    save_json(
        "build",
        dataset,
        {
            "workers": workers,
            "serial": {**ss.as_dict(), "wall_s": serial_s},
            "parallel": {**ps.as_dict(), "wall_s": parallel_s},
            "cold_build_speedup": speedup,
            "corpus_analysis": {
                "nodes": len(serial_corpus),
                "serial_s": corpus_serial_s,
                "parallel_s": corpus_parallel_s,
                "speedup": corpus_speedup,
            },
            "rankings_identical": True,
        },
    )

    # the ≥2x target needs real parallelism: only enforce it when the
    # machine has ≥4 cores and the build actually used ≥4 workers
    if cores >= 4 and workers >= 4:
        assert speedup >= 2.0, (
            f"parallel cold build ({parallel_s:.3f}s, {workers} workers) "
            f"not ≥2x faster than serial ({serial_s:.3f}s) on {cores} cores"
        )
