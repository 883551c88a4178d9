"""End-to-end gateway tests over real sockets.

Covers the acceptance bar for the serving layer: responses byte-
identical to in-process ``find_experts``, readiness gating, hot reload under concurrent load with zero
failed or torn responses, per-client throttling with ``Retry-After``,
probes that answer while long work computes, the keep-alive idle
timeout, and the strict wire-level bounds of the hand-rolled HTTP
parser.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import socket
import threading
import time
import warnings

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.serve import GatewayConfig, GatewayHarness
from repro.serve.reload import build_service
from tests.oracle import oracle_experts
from tests.serve.conftest import HAND_TEXTS, build_hand_graph


def _raw(harness: GatewayHarness, data: bytes, timeout: float = 10.0) -> bytes:
    """One raw TCP exchange: send *data*, read until the server closes."""
    with socket.create_connection(
        (harness.host, harness.port), timeout=timeout
    ) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _triples(experts: list[dict]) -> list[tuple[str, float, int]]:
    return [
        (e["candidate_id"], e["score"], e["supporting_resources"])
        for e in experts
    ]


class TestEquivalence:
    """Gateway responses must be byte-identical (ids and scores) to the
    in-process oracle."""

    # (served path, shards): one path and one layout are left — every
    # finder scores its segments in process — and the cell keeps its id
    MATRIX = [("columnar", None)]

    @pytest.fixture(scope="class")
    def expected(self, stream_finder_factory, stream_parts):
        _, _, queries = stream_parts
        reference = stream_finder_factory()
        return {
            q: [
                (e.candidate_id, e.score, e.supporting_resources)
                for e in oracle_experts(reference, q, top_k=5)
            ]
            for q in queries
        }

    @pytest.mark.parametrize("engine,shards", MATRIX)
    def test_query_and_batch_byte_identical(
        self, stream_finder_factory, stream_parts, expected, engine, shards
    ):
        _, _, queries = stream_parts

        def source():
            return build_service(stream_finder_factory())

        harness = GatewayHarness(
            source, config=GatewayConfig(rate_limit=None), reloadable=False
        )
        with harness:
            for query in queries:
                status, _, body = harness.request(
                    "POST", "/v1/query", {"need": query, "top_k": 5}
                )
                assert status == 200
                assert _triples(body["experts"]) == expected[query]
            # the batch path goes through find_experts_batch
            status, _, body = harness.request(
                "POST", "/v1/query/batch", {"needs": queries, "top_k": 5}
            )
            assert status == 200
            assert [_triples(r) for r in body["results"]] == [
                expected[q] for q in queries
            ]


class TestHarnessLifecycle:
    def test_stop_closes_the_event_loop(self, hand_source):
        harness = GatewayHarness(
            hand_source, config=GatewayConfig(rate_limit=None)
        )
        with harness:
            # a batch runs in the loop's default executor, so stop() has
            # executor threads to shut down as well
            status, _, _ = harness.request(
                "POST", "/v1/query/batch", {"needs": ["swimming"]}
            )
            assert status == 200
        loop = harness._loop
        assert loop.is_closed()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del harness, loop
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestReadiness:
    def test_not_ready_until_first_generation_compiles(self, analyzer):
        release = threading.Event()

        def slow_source():
            assert release.wait(30.0), "test released the source too late"
            finder = ExpertFinder.build(
                build_hand_graph(),
                tuple(HAND_TEXTS),
                analyzer,
                FinderConfig(window=None),
            )
            return build_service(finder)

        harness = GatewayHarness(
            slow_source, config=GatewayConfig(rate_limit=None)
        )
        harness.start(wait_ready=False)
        try:
            status, _, _ = harness.request("GET", "/healthz")
            assert status == 200  # alive even while loading
            status, _, body = harness.request("GET", "/readyz")
            assert (status, body) == (503, {"ready": False})
            status, _, body = harness.request(
                "POST", "/v1/query", {"need": "swimming"}
            )
            assert status == 503
            assert body["error"]["code"] == "not_ready"
            status, _, body = harness.request("GET", "/v1/metrics")
            assert body["ready"] is False
            assert body["generation"] == 0
            assert body["service"] is None

            release.set()
            harness.wait_ready()
            status, _, body = harness.request("GET", "/readyz")
            assert (status, body["ready"]) == (200, True)
            status, _, body = harness.request(
                "POST", "/v1/query", {"need": "swimming"}
            )
            assert status == 200
        finally:
            release.set()
            harness.stop()


class TestRateLimiting:
    def test_429_retry_after_and_metrics(self, hand_source):
        harness = GatewayHarness(
            hand_source, config=GatewayConfig(rate_limit=0.01, burst=2.0)
        )
        with harness:
            outcomes = [
                harness.request(
                    "POST",
                    "/v1/query",
                    {"need": "swimming"},
                    headers={"x-client-id": "hammer"},
                )
                for _ in range(5)
            ]
            admitted = [o for o in outcomes if o[0] == 200]
            rejected = [o for o in outcomes if o[0] == 429]
            assert (len(admitted), len(rejected)) == (2, 3)
            for _, headers, body in rejected:
                assert int(headers["retry-after"]) >= 1
                assert body["error"]["code"] == "rate_limited"
            # a different client owns a fresh bucket
            status, _, _ = harness.request(
                "POST",
                "/v1/query",
                {"need": "swimming"},
                headers={"x-client-id": "polite"},
            )
            assert status == 200
            # probes and metrics are never throttled — and the metrics
            # endpoint reports the rejections
            for _ in range(5):
                status, _, body = harness.request(
                    "GET", "/v1/metrics", headers={"x-client-id": "hammer"}
                )
                assert status == 200
            assert body["gateway"]["rate_limited_total"] == 3

    def test_batch_spends_one_token_per_need(self, hand_source):
        harness = GatewayHarness(
            hand_source, config=GatewayConfig(rate_limit=0.01, burst=3.0)
        )
        with harness:
            status, _, _ = harness.request(
                "POST",
                "/v1/query/batch",
                {"needs": ["swimming", "guitar", "pasta"]},
                headers={"x-client-id": "batcher"},
            )
            assert status == 200  # exactly the burst
            status, _, _ = harness.request(
                "POST",
                "/v1/query",
                {"need": "swimming"},
                headers={"x-client-id": "batcher"},
            )
            assert status == 429  # the batch drained the bucket


class TestHotReload:
    def test_reload_under_load_zero_failures(self, hand_source):
        harness = GatewayHarness(
            hand_source, config=GatewayConfig(rate_limit=None)
        )
        with harness:
            status, _, baseline = harness.request(
                "POST", "/v1/query", {"need": "freestyle swimming"}
            )
            assert status == 200
            expected = baseline["experts"]
            assert expected  # alice and carol rank

            failures: list[tuple[int, object]] = []
            done = threading.Event()

            def hammer() -> None:
                conn = harness.connection()
                try:
                    while not done.is_set():
                        status, _, body = harness.request(
                            "POST",
                            "/v1/query",
                            {"need": "freestyle swimming"},
                            conn=conn,
                        )
                        # identical rankings whichever generation served
                        # it — a torn or failed response records here
                        if status != 200 or body["experts"] != expected:
                            failures.append((status, body))
                finally:
                    conn.close()

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            generations = []
            try:
                for _ in range(3):
                    status, _, body = harness.request(
                        "POST", "/admin/reload"
                    )
                    assert status == 200
                    generations.append(body["generation"])
                    time.sleep(0.05)
            finally:
                done.set()
                for thread in threads:
                    thread.join(30.0)
            assert failures == []
            assert generations == [2, 3, 4]
            status, _, body = harness.request("GET", "/v1/metrics")
            assert body["generation"] == 4
            assert body["gateway"]["reloads"] == 3
            assert body["gateway"]["reload_failures"] == 0

    def test_failed_reload_keeps_old_generation(self, analyzer):
        calls = {"count": 0}

        def flaky_source():
            calls["count"] += 1
            if calls["count"] > 1:
                raise RuntimeError("disk on fire")
            finder = ExpertFinder.build(
                build_hand_graph(),
                tuple(HAND_TEXTS),
                analyzer,
                FinderConfig(window=None),
            )
            return build_service(finder)

        harness = GatewayHarness(
            flaky_source, config=GatewayConfig(rate_limit=None)
        )
        with harness:
            status, _, body = harness.request("POST", "/admin/reload")
            assert status == 500
            assert body["error"]["code"] == "reload_failed"
            assert "disk on fire" in body["error"]["message"]
            # generation 1 keeps serving, untouched
            status, _, body = harness.request(
                "POST", "/v1/query", {"need": "freestyle swimming"}
            )
            assert (status, body["generation"]) == (200, 1)
            status, _, body = harness.request("GET", "/v1/metrics")
            assert body["gateway"]["reload_failures"] == 1
            assert body["gateway"]["reloads"] == 0

    def test_not_reloadable_gateway_409s(self, hand_source):
        harness = GatewayHarness(
            hand_source,
            config=GatewayConfig(rate_limit=None),
            reloadable=False,
        )
        with harness:
            status, _, body = harness.request("POST", "/admin/reload")
            assert status == 409
            assert body["error"]["code"] == "not_reloadable"


def _park(
    monkeypatch, target: object, method: str
) -> tuple[threading.Event, threading.Event]:
    """Wrap *target*'s *method* so that each call parks until released.

    Returns ``(entered, release)``: *entered* is set once a call is
    parked, and setting *release* lets it go on to the real method."""
    entered = threading.Event()
    release = threading.Event()
    original = getattr(target, method)

    def parked(*args, **kwargs):
        entered.set()
        if not release.wait(30.0):
            raise RuntimeError("the test never released the parked call")
        return original(*args, **kwargs)

    monkeypatch.setattr(target, method, parked)
    return entered, release


class TestLoopLiveness:
    """Work that grows with the request runs in the executor, so the
    event loop keeps answering probes while it computes; a single query
    ranks inline on the loop thread."""

    PARKED = [
        ("/v1/query/batch", "find_experts_batch", None),
        (
            "/v1/observe",
            "observe",
            {
                "node_id": "s:parked:1",
                "text": "freestyle swimming relay final",
                "supporters": [["alice", 1]],
            },
        ),
        ("/v1/crowd/route", "find_experts", {"need": "freestyle swimming"}),
        ("/v1/crowd/jury", "find_experts", {"need": "freestyle swimming"}),
        ("/v1/crowd/team", "find_experts", {"skills": ["swimming"]}),
    ]

    @pytest.mark.parametrize(
        "path,method,payload", PARKED, ids=[case[0] for case in PARKED]
    )
    def test_probes_answer_while_work_is_parked(
        self, gateway, monkeypatch, path, method, payload
    ):
        if payload is None:  # the largest batch a request may carry
            payload = {
                "needs": ["freestyle swimming"]
                * gateway.app.config.max_batch_needs
            }
        service = gateway.app.reloader.require_current().service
        entered, release = _park(monkeypatch, service, method)
        outcome: dict[str, int] = {}

        def send() -> None:
            outcome["status"] = gateway.request("POST", path, payload)[0]

        sender = threading.Thread(target=send)
        sender.start()
        try:
            assert entered.wait(10.0), f"{path} never reached the service"
            for probe in ("/healthz", "/readyz"):
                conn = http.client.HTTPConnection(
                    gateway.host, gateway.port, timeout=2.0
                )
                started = time.monotonic()
                try:
                    status, _, _ = gateway.request("GET", probe, conn=conn)
                finally:
                    conn.close()
                assert status == 200
                assert time.monotonic() - started < 2.0
        finally:
            release.set()
            sender.join(30.0)
        assert not sender.is_alive()
        assert outcome["status"] == 200

    def test_single_query_ranks_on_the_loop_thread(self, gateway, monkeypatch):
        service = gateway.app.reloader.require_current().service
        original = service.find_experts
        loops: list[asyncio.AbstractEventLoop | None] = []

        def recording(*args, **kwargs):
            try:
                loops.append(asyncio.get_running_loop())
            except RuntimeError:  # an executor thread runs no loop
                loops.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(service, "find_experts", recording)
        status, _, body = gateway.request(
            "POST", "/v1/query", {"need": "freestyle swimming"}
        )
        assert status == 200
        assert body["experts"]
        assert len(loops) == 1
        assert loops[0] is not None, "find_experts ran off the event loop"


def _read_until_closed(sock: socket.socket, limit: float) -> bytes:
    """Everything the server sends until it closes *sock*; raises
    ``TimeoutError`` if it is still open after *limit* seconds."""
    deadline = time.monotonic() + limit
    chunks = []
    while True:
        sock.settimeout(max(deadline - time.monotonic(), 0.001))
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestIdleTimeout:
    """``GatewayConfig.idle_timeout`` bounds each request read, not the
    life of a keep-alive connection."""

    @pytest.fixture
    def quick(self, hand_source):
        harness = GatewayHarness(
            hand_source,
            config=GatewayConfig(rate_limit=None, idle_timeout=0.2),
        )
        with harness:
            yield harness

    def test_idle_keep_alive_connection_is_closed(self, quick):
        with socket.create_connection((quick.host, quick.port)) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nhost: gateway\r\n\r\n")
            raw = _read_until_closed(sock, 2.0)
        assert raw.startswith(b"HTTP/1.1 200")
        assert b"connection: keep-alive" in raw

    def test_stalled_headers_are_closed(self, quick):
        with socket.create_connection((quick.host, quick.port)) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nhost: gateway\r\n")
            assert _read_until_closed(sock, 2.0) == b""

    def test_steady_requests_keep_the_connection(self, quick):
        conn = quick.connection()
        try:
            statuses = []
            sock = None
            for i in range(12):  # 0.6 s in all, three idle timeouts
                if i % 2:
                    status, _, _ = quick.request(
                        "POST", "/v1/query", {"need": "swimming"}, conn=conn
                    )
                else:
                    status, _, _ = quick.request("GET", "/healthz", conn=conn)
                statuses.append(status)
                if sock is None:
                    sock = conn.sock
                # http.client reconnects silently: the same socket shows
                # that the server never closed this connection
                assert conn.sock is sock
                time.sleep(0.05)
        finally:
            conn.close()
        assert statuses == [200] * 12


class TestWireProtocol:
    def test_malformed_request_line(self, gateway):
        raw = _raw(gateway, b"GARBAGE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"bad_request_line" in raw

    def test_unsupported_http_version(self, gateway):
        raw = _raw(gateway, b"GET /healthz SPDY/3\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")

    def test_chunked_bodies_rejected(self, gateway):
        raw = _raw(
            gateway,
            b"POST /v1/query HTTP/1.1\r\n"
            b"transfer-encoding: chunked\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 501")
        assert b"chunked_unsupported" in raw

    def test_bad_content_length(self, gateway):
        raw = _raw(
            gateway,
            b"POST /v1/query HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_body_too_large(self, hand_source):
        harness = GatewayHarness(
            hand_source,
            config=GatewayConfig(rate_limit=None, max_body_bytes=64),
        )
        with harness:
            status, _, body = harness.request(
                "POST", "/v1/query", {"need": "x" * 200}
            )
            assert status == 413
            assert body["error"]["code"] == "body_too_large"

    def test_headers_too_large(self, hand_source):
        harness = GatewayHarness(
            hand_source,
            config=GatewayConfig(rate_limit=None, max_header_bytes=256),
        )
        with harness:
            raw = _raw(
                harness,
                b"GET /healthz HTTP/1.1\r\n"
                b"x-padding: " + b"p" * 1000 + b"\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 431")

    def test_keep_alive_serves_sequential_requests(self, gateway):
        conn = gateway.connection()
        try:
            first, _, _ = gateway.request("GET", "/healthz", conn=conn)
            second, _, _ = gateway.request(
                "POST", "/v1/query", {"need": "swimming"}, conn=conn
            )
            assert (first, second) == (200, 200)
        finally:
            conn.close()

    def test_query_string_is_ignored_for_routing(self, gateway):
        status, _, _ = gateway.request("GET", "/healthz?probe=1")
        assert status == 200


class TestEndpointErrors:
    def test_unknown_path_404(self, gateway):
        status, _, body = gateway.request("GET", "/v2/query")
        assert (status, body["error"]["code"]) == (404, "not_found")

    def test_wrong_method_405(self, gateway):
        status, _, body = gateway.request("GET", "/v1/query")
        assert (status, body["error"]["code"]) == (405, "method_not_allowed")

    @pytest.mark.parametrize(
        "payload,code",
        [
            ({}, "invalid_field"),  # missing need
            ({"need": ""}, "invalid_field"),
            ({"need": "x", "topk": 3}, "unknown_field"),
            ({"need": "x", "top_k": 0}, "invalid_field"),
            ({"need": "x", "alpha": 1.5}, "invalid_field"),
            ({"need": "x", "window": 0}, "invalid_field"),
            ({"need": "x", "window": 1.5}, "invalid_field"),
            ({"need": "x", "window": True}, "invalid_field"),
            # json.dumps writes these as the bare NaN/Infinity tokens
            ({"need": "x", "alpha": float("nan")}, "invalid_json"),
            ({"need": "x", "alpha": float("inf")}, "invalid_json"),
            ({"need": "x", "window": float("-inf")}, "invalid_json"),
        ],
    )
    def test_query_validation(self, gateway, payload, code):
        status, _, body = gateway.request("POST", "/v1/query", payload)
        assert (status, body["error"]["code"]) == (400, code)

    def test_query_window_semantics_on_the_wire(self, gateway):
        # null window (all evidence) and a fractional window are both
        # valid and may rank differently — they must not 400
        for window in (None, 0.5, 1):
            status, _, body = gateway.request(
                "POST", "/v1/query", {"need": "swimming", "window": window}
            )
            assert status == 200

    def test_batch_size_bound(self, hand_source):
        harness = GatewayHarness(
            hand_source,
            config=GatewayConfig(rate_limit=None, max_batch_needs=2),
        )
        with harness:
            status, _, body = harness.request(
                "POST", "/v1/query/batch", {"needs": ["a", "b", "c"]}
            )
            assert status == 400
            assert "limited to 2" in body["error"]["message"]

    @pytest.mark.parametrize(
        "supporters",
        [[], [["alice"]], [["alice", -1]], [["alice", True]], [[3, 1]], "x"],
    )
    def test_observe_supporter_validation(self, gateway, supporters):
        status, _, body = gateway.request(
            "POST",
            "/v1/observe",
            {"node_id": "n1", "text": "some text", "supporters": supporters},
        )
        assert status == 400

    def test_observe_indexes_and_affects_queries(self, gateway):
        status, _, before = gateway.request(
            "POST", "/v1/query", {"need": "theremin concert"}
        )
        assert (status, before["experts"]) == (200, [])
        status, _, body = gateway.request(
            "POST",
            "/v1/observe",
            {
                "node_id": "s:new:1",
                "text": "an amazing theremin concert last night",
                "supporters": [["bob", 1]],
            },
        )
        assert (status, body["indexed"]) == (200, True)
        status, _, after = gateway.request(
            "POST", "/v1/query", {"need": "theremin concert"}
        )
        assert [e["candidate_id"] for e in after["experts"]] == ["bob"]

    def test_observe_unknown_supporter_is_a_bad_request(self, gateway):
        # the finder raises KeyError for a supporter that is not a
        # candidate; the gateway answers 400, indexes nothing and does
        # not count the observe
        need = {"need": "zither recital"}
        _, _, before = gateway.request("POST", "/v1/query", need)
        _, _, metrics = gateway.request("GET", "/v1/metrics")
        event = {
            "node_id": "s:zither:1",
            "text": "a wonderful zither recital tonight",
            "supporters": [["nobody:1", 1]],
        }
        status, _, body = gateway.request("POST", "/v1/observe", event)
        assert (status, body["error"]["code"]) == (400, "invalid_input")
        assert body["error"]["message"] == "unknown candidate 'nobody:1'"
        _, _, after = gateway.request("POST", "/v1/query", need)
        assert after == before
        _, _, metrics_after = gateway.request("GET", "/v1/metrics")
        assert metrics_after["service"]["observed"] == metrics["service"]["observed"]
        # the resource id was not consumed either
        event["supporters"] = [["bob", 1]]
        status, _, body = gateway.request("POST", "/v1/observe", event)
        assert (status, body["indexed"]) == (200, True)

    def test_observe_repeated_supporter_is_a_bad_request(self, gateway):
        # a supporter named twice would count the resource twice in its
        # Eq. 3 sum; the finder raises ValueError, and the gateway
        # answers 400 without indexing or counting the observe
        _, _, metrics = gateway.request("GET", "/v1/metrics")
        event = {
            "node_id": "s:zither:2",
            "text": "a wonderful zither recital tonight",
            "supporters": [["bob", 1], ["bob", 2]],
        }
        status, _, body = gateway.request("POST", "/v1/observe", event)
        assert (status, body["error"]["code"]) == (400, "invalid_input")
        assert body["error"]["message"] == (
            "resource 's:zither:2' names candidate 'bob' twice"
        )
        _, _, metrics_after = gateway.request("GET", "/v1/metrics")
        assert metrics_after["service"]["observed"] == metrics["service"]["observed"]
        event["supporters"] = [["bob", 1]]
        status, _, body = gateway.request("POST", "/v1/observe", event)
        assert (status, body["indexed"]) == (200, True)

    def test_crowd_route_unknown_strategy(self, gateway):
        status, _, body = gateway.request(
            "POST",
            "/v1/crowd/route",
            {"need": "swimming", "strategy": "telepathy"},
        )
        assert status == 400
        assert "telepathy" in body["error"]["message"]

    def test_crowd_route_seed_zero_is_the_default(self, gateway):
        status, _, omitted = gateway.request(
            "POST", "/v1/crowd/route", {"need": "freestyle swimming"}
        )
        assert status == 200
        status, _, zero = gateway.request(
            "POST",
            "/v1/crowd/route",
            {"need": "freestyle swimming", "seed": 0},
        )
        assert (status, zero) == (200, omitted)

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_crowd_route_rejects_bad_seed(self, gateway, seed):
        status, _, body = gateway.request(
            "POST",
            "/v1/crowd/route",
            {"need": "freestyle swimming", "seed": seed},
        )
        assert (status, body["error"]["code"]) == (400, "invalid_field")
        assert "non-negative" in body["error"]["message"]

    def test_crowd_route_no_experts_404(self, gateway):
        status, _, body = gateway.request(
            "POST", "/v1/crowd/route", {"need": "xylophone apocalypse"}
        )
        assert (status, body["error"]["code"]) == (404, "no_experts")

    def test_crowd_jury_rejects_bad_budget(self, gateway):
        status, _, body = gateway.request(
            "POST", "/v1/crowd/jury", {"need": "swimming", "budget": -1}
        )
        assert (status, body["error"]["code"]) == (400, "invalid_field")

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), float("-inf")])
    def test_crowd_jury_rejects_non_finite_budget(self, gateway, budget):
        # sent as the bare NaN/Infinity tokens; parsed, NaN would slip
        # past the budget's range check and select an unbudgeted jury
        status, _, body = gateway.request(
            "POST", "/v1/crowd/jury", {"need": "swimming", "budget": budget}
        )
        assert (status, body["error"]["code"]) == (400, "invalid_json")

    def test_crowd_jury_selects_members(self, gateway):
        status, _, body = gateway.request(
            "POST", "/v1/crowd/jury", {"need": "swimming", "max_size": 3}
        )
        assert status == 200
        assert body["members"]
        assert 0.0 <= body["jury_error_rate"] <= 1.0

    def test_crowd_team_bad_algorithm(self, gateway):
        status, _, body = gateway.request(
            "POST",
            "/v1/crowd/team",
            {"skills": ["swimming"], "algorithm": "vibes"},
        )
        assert status == 400

    def test_crowd_team_uncoverable_skill_404(self, gateway):
        status, _, body = gateway.request(
            "POST",
            "/v1/crowd/team",
            {"skills": ["swimming", "quantum basket weaving"]},
        )
        assert (status, body["error"]["code"]) == (404, "no_experts")

    def test_crowd_team_covers_both_skills(self, gateway):
        status, _, body = gateway.request(
            "POST",
            "/v1/crowd/team",
            {"skills": ["swimming", "rock music"], "algorithm": "rarest_first"},
        )
        assert status == 200
        assert set(body["required_skills"]) == {"swimming", "rock music"}
        assert body["members"]


class TestTeamGraph:
    """The team route's co-support graph follows the generation's
    observes: candidates that come to support one resource are linked."""

    @pytest.mark.parametrize("language", [None, "it"])
    def test_team_sees_observed_co_support(self, analyzer, language):
        def source():
            finder = ExpertFinder.from_stream(
                ("a", "b", "c"),
                [
                    ("ra", "freestyle swimming race", [("a", 1)], "en"),
                    ("rb", "cooking pasta recipes", [("b", 1)], "en"),
                    ("rc", "rock guitar chords", [("c", 1)], "en"),
                ],
                analyzer,
                FinderConfig(window=None),
            )
            return build_service(finder)

        team = {"skills": ["swimming", "cooking"]}
        with GatewayHarness(source, config=GatewayConfig(rate_limit=None)) as gw:
            status, _, body = gw.request("POST", "/v1/crowd/team", team)
            assert status == 200 and body["members"] == ["a", "b"]
            assert body["diameter_cost"] == 10.0  # a and b are not linked
            # one hike both take part in links them, whether the resource
            # is indexed or (language-cut) evidence only
            observe = {
                "node_id": "hike",
                "text": "weekend hiking trip in the mountains",
                "supporters": [["a", 1], ["b", 1]],
            }
            if language is not None:
                observe["language"] = language
            status, _, body = gw.request("POST", "/v1/observe", observe)
            assert status == 200 and body["indexed"] is (language is None)
            status, _, body = gw.request("POST", "/v1/crowd/team", team)
            assert status == 200 and body["members"] == ["a", "b"]
            assert body["diameter_cost"] == 1.0


class TestMetricsEndpoint:
    def test_shape_and_counters(self, gateway):
        for _ in range(3):
            status, _, _ = gateway.request(
                "POST", "/v1/query", {"need": "swimming"}
            )
            assert status == 200
        gateway.request("POST", "/v1/query", {"bad": "payload"})
        status, _, body = gateway.request("GET", "/v1/metrics")
        assert status == 200
        assert body["ready"] is True
        assert body["generation"] == 1
        assert body["snapshot_generation"] is None  # built in process
        service = body["service"]
        assert service["queries"] == 3
        assert service["cache_hits"] == 2
        assert service["hit_rate"] == pytest.approx(2 / 3)
        gw = body["gateway"]
        assert gw["requests_total"] == 5
        assert gw["bad_requests_total"] == 1
        assert gw["in_flight"] == 1  # this very request
        assert gw["responses_by_status"]["200"] == 3
        route = gw["routes"]["/v1/query"]
        assert route["requests"] == 4
        assert route["p95_latency_s"] >= route["p50_latency_s"] >= 0.0
