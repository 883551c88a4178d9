"""Streaming benchmark: observe → query on the one segmented path.

Measures what streaming costs now that every finder is a segmented
index (an indexed observe lands in the write buffer; no compiled state
is thrown away):

* **equivalence** — after every streamed observe, the streamed finder
  returns byte-identical rankings to an oracle fed the same stream — a
  ``VectorSpaceRetriever`` + ``ExpertRanker`` rebuilt
  cold from a second finder's merged collection after every observe —
  over the full query set (asserted unconditionally, at every scale);
* **latency** — observe, and observe followed by one uncached query,
  per streamed resource, plus the uncached QPS after the stream.

The numbers go to ``benchmarks/results/BENCH_streaming.json`` in the
shared machine-readable schema plus a rendered text report.
"""

from __future__ import annotations

import time

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.service import ExpertSearchService, percentile
from tests.oracle import merged_slice
from tests.reference.ranking import ExpertRanker
from tests.reference.vsm import VectorSpaceRetriever

#: streamed resources (every 5th is Italian → evidence-only)
_EVENTS = 40

#: the write buffer seals after this many streamed resources
_SEAL_THRESHOLD = 16

#: timed uncached passes over the query set after the stream
_ROUNDS = 5


def bench_streaming(ctx, save_result, save_json):
    dataset = ctx.dataset
    queries = list(dataset.queries)
    candidates = list(dataset.candidates_for(None))
    config = FinderConfig()

    # fresh finders — the session-cached ctx.runner.finder is shared with
    # other benchmarks and must not absorb this stream
    def build(**kwargs):
        return ExpertFinder.build(
            dataset.merged_graph,
            dataset.candidates_for(None),
            dataset.analyzer,
            config,
            corpus=dataset.corpus,
            **kwargs,
        )

    streamed = build(seal_threshold=_SEAL_THRESHOLD)
    # the oracle's collection: fed the same stream, never queried
    collection = build(seal_threshold=_SEAL_THRESHOLD)
    analyzed = [
        dataset.analyzer.analyze("__query__", need.text, language="en")
        for need in queries
    ]

    events = []
    for i in range(_EVENTS):
        italian = i % 5 == 4
        text = (
            "questa e una bella giornata per andare in piscina con gli amici"
            if italian
            else f"streamed update number {i} about {queries[i % len(queries)]}"
        )
        events.append(
            (
                f"stream:{i}",
                text,
                [(candidates[i % len(candidates)], 1 + i % 2)],
                "it" if italian else "en",
            )
        )

    observe_s, observe_query_s = [], []
    for i, (rid, text, supporters, language) in enumerate(events):
        need = queries[i % len(queries)]

        t0 = time.perf_counter()
        streamed.observe(rid, text, supporters, language=language)
        t1 = time.perf_counter()
        streamed.find_experts(need)
        t2 = time.perf_counter()
        observe_s.append(t1 - t0)
        observe_query_s.append(t2 - t0)

        # equivalence, unconditionally and at every intermediate state:
        # the streamed segments must rank like the oracle rebuilt cold
        # from the merged collection, bit for bit
        collection.observe(rid, text, supporters, language=language)
        term_index, entity_index, evidence = merged_slice(collection.segmented_index)
        retriever = VectorSpaceRetriever(
            term_index, entity_index, idf_exponent=config.idf_exponent
        )
        ranker = ExpertRanker(evidence, config)
        for check, query in zip(queries, analyzed):
            expected = ranker.rank(retriever.retrieve(query, config.alpha))
            assert streamed.find_experts(check) == expected, (
                f"streamed ranking diverged after {rid} on {check!r}"
            )

    service = ExpertSearchService(streamed, cache_size=0)  # every query a miss
    service.find_experts_batch(queries, top_k=10)  # warm-up pass
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        service.find_experts_batch(queries, top_k=10)
    qps = len(queries) * _ROUNDS / (time.perf_counter() - t0)

    stats = streamed.index_stats
    lines = [
        "Streaming — observe → query on the segmented path",
        f"dataset: scale={dataset.scale.value} seed={dataset.seed} "
        f"({streamed.indexed_resources} docs, {len(candidates)} candidates, "
        f"{_EVENTS} observes, {len(queries)} queries)",
        f"segments after stream: {stats.segments} live, {stats.buffered} "
        f"buffered, {stats.seals} seals, {stats.compactions} compactions",
        "",
        f"observe:        p50 {percentile(sorted(observe_s), 50) * 1e6:8.1f}µs"
        f"   p95 {percentile(sorted(observe_s), 95) * 1e6:8.1f}µs",
        f"observe+query:  p50 {percentile(sorted(observe_query_s), 50) * 1e3:8.2f}ms"
        f"   p95 {percentile(sorted(observe_query_s), 95) * 1e3:8.2f}ms",
        f"uncached q/s after the stream: {qps:8.0f}",
    ]
    save_result("streaming", "\n".join(lines))
    save_json(
        "streaming",
        dataset,
        {
            "events": _EVENTS,
            "queries": len(queries),
            "rounds": _ROUNDS,
            "seal_threshold": _SEAL_THRESHOLD,
            "segments": stats.segments,
            "seals": stats.seals,
            "compactions": stats.compactions,
            "observe_p50_s": percentile(sorted(observe_s), 50),
            "observe_p95_s": percentile(sorted(observe_s), 95),
            "observe_query_p50_s": percentile(sorted(observe_query_s), 50),
            "observe_query_p95_s": percentile(sorted(observe_query_s), 95),
            "uncached_qps": qps,
        },
    )
