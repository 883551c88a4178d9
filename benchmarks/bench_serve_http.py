"""HTTP gateway benchmark: socket-to-socket QPS and hot-reload safety.

Drives a real :class:`~repro.serve.harness.GatewayHarness` (asyncio
HTTP/1.1 server on an ephemeral port) with concurrent keep-alive
clients and measures what the wire adds on top of the in-process
service:

* **single queries** — ``POST /v1/query`` QPS and p50/p95 wall-clock
  latency as seen by the client, cache-warm;
* **batches** — ``POST /v1/query/batch`` throughput in needs/second;
* **hot reload under load** — ``POST /admin/reload`` fired repeatedly
  while clients hammer queries; the run asserts **zero** failed or torn
  responses (every answer matches the single-generation baseline).

Rendered report → ``benchmarks/results/serve_http.txt``; machine
numbers → ``benchmarks/results/BENCH_serve_http.json``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.core.service import percentile
from repro.serve import GatewayConfig, GatewayHarness
from repro.serve.reload import build_service

#: concurrent keep-alive client threads
_CLIENTS = 8
#: passes over the query set per client in the single-query phase
_QUERY_ROUNDS = 6
#: batch requests per client in the batch phase
_BATCH_ROUNDS = 4
#: reloads fired during the reload-under-load phase
_RELOADS = 3


def bench_serve_http(ctx, save_result, save_json):
    dataset = ctx.dataset
    queries = [need.text for need in dataset.queries]

    def source():
        finder = ExpertFinder.build(
            dataset.merged_graph,
            dataset.candidates_for(None),
            dataset.analyzer,
            FinderConfig(),
            corpus=dataset.corpus,
        )
        return build_service(finder, cache_size=len(queries) * 2)

    harness = GatewayHarness(source, config=GatewayConfig(rate_limit=None))
    with harness:
        # -- warm the cache and capture the per-query baselines ----------------
        baselines = {}
        for query in queries:
            status, _, body = harness.request(
                "POST", "/v1/query", {"need": query, "top_k": 10}
            )
            assert status == 200
            baselines[query] = body["experts"]

        # -- phase 1: concurrent single queries --------------------------------
        def query_client(_worker: int) -> list[float]:
            latencies = []
            conn = harness.connection()
            try:
                for _ in range(_QUERY_ROUNDS):
                    for query in queries:
                        t0 = time.perf_counter()
                        status, _, body = harness.request(
                            "POST",
                            "/v1/query",
                            {"need": query, "top_k": 10},
                            conn=conn,
                        )
                        latencies.append(time.perf_counter() - t0)
                        assert status == 200
                        assert body["experts"] == baselines[query]
            finally:
                conn.close()
            return latencies

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=_CLIENTS) as pool:
            per_client = list(pool.map(query_client, range(_CLIENTS)))
        single_elapsed = time.perf_counter() - t0
        latencies = sorted(sample for batch in per_client for sample in batch)
        single_requests = len(latencies)
        single_qps = single_requests / single_elapsed
        p50_ms = percentile(latencies, 50) * 1e3
        p95_ms = percentile(latencies, 95) * 1e3

        # -- phase 2: concurrent batches ---------------------------------------
        def batch_client(_worker: int) -> int:
            served = 0
            conn = harness.connection()
            try:
                for _ in range(_BATCH_ROUNDS):
                    status, _, body = harness.request(
                        "POST",
                        "/v1/query/batch",
                        {"needs": queries, "top_k": 10},
                        conn=conn,
                    )
                    assert status == 200
                    assert len(body["results"]) == len(queries)
                    served += len(queries)
            finally:
                conn.close()
            return served

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=_CLIENTS) as pool:
            served = sum(pool.map(batch_client, range(_CLIENTS)))
        batch_elapsed = time.perf_counter() - t0
        batch_needs_per_s = served / batch_elapsed

        # -- phase 3: hot reload under load ------------------------------------
        failures: list[tuple[int, object]] = []
        stop = threading.Event()
        reload_query = queries[0]

        def reload_hammer() -> int:
            count = 0
            conn = harness.connection()
            try:
                while not stop.is_set():
                    status, _, body = harness.request(
                        "POST",
                        "/v1/query",
                        {"need": reload_query, "top_k": 10},
                        conn=conn,
                    )
                    count += 1
                    if (
                        status != 200
                        or body["experts"] != baselines[reload_query]
                    ):
                        failures.append((status, body))
            finally:
                conn.close()
            return count

        hammer_pool = ThreadPoolExecutor(max_workers=4)
        hammered = [hammer_pool.submit(reload_hammer) for _ in range(4)]
        reload_s = []
        try:
            for _ in range(_RELOADS):
                t0 = time.perf_counter()
                status, _, body = harness.request("POST", "/admin/reload")
                reload_s.append(time.perf_counter() - t0)
                assert status == 200
        finally:
            stop.set()
            hammer_pool.shutdown(wait=True)
        requests_during_reloads = sum(f.result() for f in hammered)
        assert failures == [], f"failed/torn responses: {failures[:3]}"

        status, _, metrics_body = harness.request("GET", "/v1/metrics")
        assert status == 200
        assert metrics_body["gateway"]["reloads"] == _RELOADS
        assert metrics_body["generation"] == 1 + _RELOADS

    lines = [
        "HTTP gateway — socket-to-socket serving performance",
        f"dataset: scale={dataset.scale.value} seed={dataset.seed} "
        f"({len(queries)} queries, {_CLIENTS} keep-alive clients)",
        "",
        f"single queries:       {single_qps:8.0f} q/s "
        f"(p50 {p50_ms:.2f}ms, p95 {p95_ms:.2f}ms over "
        f"{single_requests} requests)",
        f"batched queries:      {batch_needs_per_s:8.0f} needs/s",
        "",
        f"hot reloads:          {_RELOADS} "
        f"(avg {sum(reload_s) / len(reload_s):.3f}s each) under "
        f"{requests_during_reloads} concurrent requests — 0 failures",
    ]
    save_result("serve_http", "\n".join(lines))
    save_json(
        "serve_http",
        dataset,
        {
            "clients": _CLIENTS,
            "single_requests": single_requests,
            "single_qps": single_qps,
            "single_p50_ms": p50_ms,
            "single_p95_ms": p95_ms,
            "batch_needs_per_s": batch_needs_per_s,
            "reloads": _RELOADS,
            "reload_avg_s": sum(reload_s) / len(reload_s),
            "requests_during_reloads": requests_during_reloads,
            "reload_failed_responses": len(failures),
        },
    )
