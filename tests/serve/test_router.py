"""Router, request/response model, and JSON validator unit tests."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.metrics import GatewayMetrics, RouteMetrics
from repro.serve.router import (
    HttpError,
    Request,
    Response,
    Router,
    opt_nonnegative_int,
    opt_number,
    opt_positive_int,
    opt_str,
    opt_unit_float,
    parse_json_object,
    reject_unknown_fields,
    require_str,
    require_str_list,
)


def _request(body: bytes = b"", headers: dict[str, str] | None = None) -> Request:
    return Request(
        method="POST",
        path="/v1/query",
        headers=headers or {},
        body=body,
        peer="127.0.0.1",
    )


class TestHttpError:
    def test_structured_payload(self):
        response = HttpError(400, "invalid_field", "nope").to_response()
        assert response.status == 400
        assert response.payload == {
            "error": {"status": 400, "code": "invalid_field", "message": "nope"}
        }
        assert response.headers == {}

    def test_retry_after_is_integral_ceiling(self):
        response = HttpError(
            429, "rate_limited", "slow down", retry_after=0.2
        ).to_response()
        assert response.headers["Retry-After"] == "1"
        response = HttpError(
            429, "rate_limited", "slow down", retry_after=3.1
        ).to_response()
        assert response.headers["Retry-After"] == "4"


class TestRequestResponse:
    def test_client_key_prefers_header(self):
        assert _request(headers={"x-client-id": "svc-a"}).client_key == "svc-a"
        assert _request().client_key == "127.0.0.1"

    def test_encode_body_is_canonical(self):
        body = Response(200, {"b": 1, "a": 2}).encode_body()
        assert body == b'{"a": 2, "b": 1}\n'


class TestRouter:
    @pytest.fixture
    def router(self):
        async def handler(request: Request) -> Response:
            return Response(200, {})

        router = Router()
        router.add("POST", "/v1/query", handler, limited=True)
        router.add("GET", "/healthz", handler)
        return router

    def test_resolve_exact(self, router):
        route = router.resolve("post", "/v1/query")
        assert (route.method, route.limited) == ("POST", True)

    def test_unknown_path_404(self, router):
        with pytest.raises(HttpError) as exc:
            router.resolve("GET", "/nope")
        assert (exc.value.status, exc.value.code) == (404, "not_found")

    def test_wrong_method_405_lists_allowed(self, router):
        with pytest.raises(HttpError) as exc:
            router.resolve("DELETE", "/v1/query")
        assert exc.value.status == 405
        assert "POST" in exc.value.message

    def test_duplicate_route_rejected(self, router):
        async def handler(request: Request) -> Response:
            return Response(200, {})

        with pytest.raises(ValueError, match="duplicate"):
            router.add("GET", "/healthz", handler)


class TestValidators:
    def test_parse_json_object(self):
        assert parse_json_object(_request(b'{"a": 1}')) == {"a": 1}

    @pytest.mark.parametrize(
        "body,code",
        [
            (b"", "empty_body"),
            (b"{not json", "invalid_json"),
            (b"[1, 2]", "invalid_json"),
            (b'"just a string"', "invalid_json"),
            (b"\xff\xfe", "invalid_json"),
        ],
    )
    def test_parse_json_object_failures(self, body, code):
        with pytest.raises(HttpError) as exc:
            parse_json_object(_request(body))
        assert (exc.value.status, exc.value.code) == (400, code)

    def test_reject_unknown_fields(self):
        reject_unknown_fields({"a": 1}, ("a", "b"))
        with pytest.raises(HttpError) as exc:
            reject_unknown_fields({"a": 1, "topk": 3, "zz": 0}, ("a",))
        assert exc.value.code == "unknown_field"
        assert "topk, zz" in exc.value.message

    @pytest.mark.parametrize("value", [None, "", "   ", 7, ["x"]])
    def test_require_str_rejects(self, value):
        with pytest.raises(HttpError):
            require_str({"need": value}, "need")

    def test_opt_str(self):
        assert opt_str({}, "language") is None
        assert opt_str({"language": "it"}, "language") == "it"
        with pytest.raises(HttpError):
            opt_str({"language": 3}, "language")

    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "3"])
    def test_opt_positive_int_rejects(self, value):
        with pytest.raises(HttpError):
            opt_positive_int({"top_k": value}, "top_k")

    def test_opt_positive_int_accepts(self):
        assert opt_positive_int({}, "top_k") is None
        assert opt_positive_int({"top_k": 4}, "top_k") == 4

    @pytest.mark.parametrize("value", [-1, 0.0, 1.5, True, False, "0"])
    def test_opt_nonnegative_int_rejects(self, value):
        with pytest.raises(HttpError) as exc:
            opt_nonnegative_int({"seed": value}, "seed")
        assert exc.value.message == "seed must be a non-negative integer"

    def test_opt_nonnegative_int_accepts_zero(self):
        assert opt_nonnegative_int({}, "seed") is None
        assert opt_nonnegative_int({"seed": 0}, "seed") == 0
        assert opt_nonnegative_int({"seed": 9}, "seed") == 9

    @pytest.mark.parametrize("value", [-0.1, 1.1, True, "0.5"])
    def test_opt_unit_float_rejects(self, value):
        with pytest.raises(HttpError):
            opt_unit_float({"alpha": value}, "alpha")

    def test_opt_unit_float_accepts_ints_as_floats(self):
        assert opt_unit_float({"alpha": 1}, "alpha") == 1.0

    @pytest.mark.parametrize("value", [True, "7", [1]])
    def test_opt_number_rejects(self, value):
        with pytest.raises(HttpError):
            opt_number({"budget": value}, "budget")

    @pytest.mark.parametrize(
        "value", [None, [], ["ok", ""], ["ok", 3], "not a list"]
    )
    def test_require_str_list_rejects(self, value):
        with pytest.raises(HttpError):
            require_str_list({"needs": value}, "needs")


class TestMetrics:
    def test_route_metrics_percentiles(self):
        metrics = RouteMetrics()
        for elapsed in (0.1, 0.2, 0.3, 0.4):
            metrics.record(elapsed, 200)
        metrics.record(0.5, 503)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 5
        assert snapshot["errors"] == 1
        assert snapshot["p50_latency_s"] == pytest.approx(0.3)
        assert snapshot["p95_latency_s"] == pytest.approx(0.5)

    def test_route_metrics_buffer_halves(self):
        metrics = RouteMetrics()
        for _ in range(5000):
            metrics.record(0.01, 200)
        assert metrics.requests == 5000
        assert len(metrics._samples) < 5000

    def test_gateway_counters(self):
        metrics = GatewayMetrics()
        metrics.begin()
        assert metrics.in_flight == 1
        metrics.end("/v1/query", 200, 0.01)
        metrics.begin()
        metrics.end("/v1/query", 429, 0.0)
        metrics.begin()
        metrics.end("/v1/query", 400, 0.0)
        metrics.begin()
        metrics.end("/v1/query", 503, 0.0)
        snapshot = metrics.snapshot()
        assert snapshot["in_flight"] == 0
        assert snapshot["requests_total"] == 4
        assert snapshot["rate_limited_total"] == 1
        assert snapshot["bad_requests_total"] == 1  # the 400, not the 429
        assert snapshot["responses_by_status"] == {
            "200": 1, "400": 1, "429": 1, "503": 1,
        }
        assert snapshot["routes"]["/v1/query"]["requests"] == 4

    def test_snapshot_is_json_serializable(self):
        metrics = GatewayMetrics()
        metrics.begin()
        metrics.end("/healthz", 200, 0.001)
        json.dumps(metrics.snapshot())


class TestDispatchUnits:
    """dispatch() details that don't need a socket."""

    def test_batch_cost_counts_needs(self):
        from repro.serve.routes import batch_cost

        assert batch_cost(_request(b'{"needs": ["a", "b", "c"]}')) == 3.0
        assert batch_cost(_request(b'{"needs": []}')) == 1.0
        assert batch_cost(_request(b"{broken")) == 1.0
        assert batch_cost(_request(b'{"needs": "not a list"}')) == 1.0

    def test_handler_crash_becomes_500(self, hand_source):
        from repro.serve import GatewayConfig, ServeApp

        app = ServeApp(
            hand_source, config=GatewayConfig(rate_limit=None)
        )

        async def scenario():
            await app.startup()

            async def boom(request: Request) -> Response:
                raise RuntimeError("kaput")

            app.router.add("POST", "/boom", boom)
            response = await app.dispatch(
                Request("POST", "/boom", {}, b"", "127.0.0.1")
            )
            app.shutdown()
            return response

        response = asyncio.run(scenario())
        assert response.status == 500
        assert response.payload["error"]["code"] == "internal_error"
        assert "kaput" in response.payload["error"]["message"]
