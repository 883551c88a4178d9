"""Cold-build benchmark: where a cold build spends its time.

Times the three-stage cold build (shared-frontier gathering, text/entity
analysis, index fill) with no pre-built corpus, reading each node's
linked pages as the dataset's corpus analysis did:

* **equivalence** — the cold build must rank ``==`` the corpus-backed
  build on every paper query (always asserted);
* **stage split** — the wall seconds of gather / analyze / index
  (``BuildStats``). An untimed build runs first, so that the timed one
  does not pay the process's one-off costs (lazy imports, the analyzer's
  word memo) alone.

Also times ``CorpusAnalyzer.analyze_graph`` over the merged graph — the
dominant cost of ``build_dataset`` — and checks that it reproduces the
dataset's corpus.

Results go to ``benchmarks/results/build.txt`` (human-readable) and
``benchmarks/results/BENCH_build.json`` (machine-readable, uploaded as
a CI artifact so the perf trajectory accumulates across commits).
"""

from __future__ import annotations

import time

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.extraction.crawler import CorpusAnalyzer
from repro.extraction.url_content import UrlContentExtractor


def bench_build(ctx, save_result, save_json):
    dataset = ctx.dataset
    graph = dataset.merged_graph
    candidates = dataset.candidates_for(None)
    queries = list(dataset.queries)
    url_content = UrlContentExtractor(dataset.networks.web)

    def cold_build() -> ExpertFinder:
        return ExpertFinder.build(
            graph, candidates, dataset.analyzer, FinderConfig(), url_content=url_content
        )

    cold_build()
    t0 = time.perf_counter()
    cold = cold_build()
    cold_s = time.perf_counter() - t0

    warm = ExpertFinder.build(
        graph, candidates, dataset.analyzer, FinderConfig(), corpus=dataset.corpus
    )
    for need in queries:
        assert cold.find_experts(need) == warm.find_experts(need), need

    t0 = time.perf_counter()
    corpus = CorpusAnalyzer(dataset.analyzer, url_content).analyze_graph(graph)
    corpus_s = time.perf_counter() - t0
    # same analyses *and* same node order (order fixes index determinism)
    assert list(corpus) == list(dataset.corpus)
    assert corpus == dataset.corpus
    corpus_rate = len(corpus) / corpus_s if corpus_s > 0 else float("inf")

    stats = cold.build_stats
    lines = [
        "Cold build — stage split of the serial pipeline",
        f"dataset: scale={dataset.scale.value} seed={dataset.seed} "
        f"({stats.nodes} nodes, {stats.indexed} indexed)",
        "",
        f"cold build:       {cold_s:8.3f}s  ({stats.render()})",
        f"corpus analysis:  {corpus_s:8.3f}s  "
        f"({len(corpus)} nodes, {corpus_rate:.0f}/s)",
        "",
        f"cold build ranks == the corpus-backed build over "
        f"{len(queries)} queries: yes",
    ]
    save_result("build", "\n".join(lines))
    save_json(
        "build",
        dataset,
        {
            "cold_build": {**stats.as_dict(), "wall_s": cold_s},
            "corpus_analysis": {
                "nodes": len(corpus),
                "wall_s": corpus_s,
                "nodes_per_s": corpus_rate,
            },
            "queries": len(queries),
            "rankings_identical": True,
        },
    )
