"""Request/response model, route table, and JSON validation.

The gateway's surface is small and fixed (no path parameters), so the
router is an exact ``(method, path)`` table. Validation failures raise
:class:`HttpError`, which renders as a structured JSON error body::

    {"error": {"status": 400, "code": "invalid_field",
               "message": "top_k must be a positive integer"}}

so network clients can branch on ``code`` without parsing prose.
"""

from __future__ import annotations

import json
from collections.abc import Awaitable, Callable, Mapping
from dataclasses import dataclass, field
from typing import Any


class HttpError(Exception):
    """An HTTP-visible failure with a structured payload."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def to_response(self) -> "Response":
        headers = {}
        if self.retry_after is not None:
            # ceil to whole seconds; Retry-After is integral per RFC 9110
            headers["Retry-After"] = str(max(1, int(-(-self.retry_after // 1))))
        return Response(
            self.status,
            {
                "error": {
                    "status": self.status,
                    "code": self.code,
                    "message": self.message,
                }
            },
            headers=headers,
        )


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Mapping[str, str]
    body: bytes
    peer: str

    @property
    def client_key(self) -> str:
        """The rate-limiting identity: the ``x-client-id`` header when
        the client names itself, else the peer address."""
        return self.headers.get("x-client-id", self.peer)


@dataclass
class Response:
    """One response: a JSON payload plus status and extra headers."""

    status: int
    payload: Any
    headers: dict[str, str] = field(default_factory=dict)

    def encode_body(self) -> bytes:
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode()


Handler = Callable[[Request], Awaitable[Response]]


@dataclass(frozen=True)
class Route:
    method: str
    path: str
    handler: Handler
    #: whether the per-client token bucket applies (work endpoints yes;
    #: probes, metrics, and admin no — operators must see a throttled
    #: gateway, not be throttled by it)
    limited: bool


class Router:
    """Exact-match route table with structured 404/405."""

    def __init__(self) -> None:
        self._routes: dict[tuple[str, str], Route] = {}
        self._paths: set[str] = set()

    def add(
        self, method: str, path: str, handler: Handler, *, limited: bool = False
    ) -> None:
        key = (method.upper(), path)
        if key in self._routes:
            raise ValueError(f"duplicate route {method} {path}")
        self._routes[key] = Route(method.upper(), path, handler, limited)
        self._paths.add(path)

    def resolve(self, method: str, path: str) -> Route:
        route = self._routes.get((method.upper(), path))
        if route is not None:
            return route
        if path in self._paths:
            allowed = sorted(
                m for (m, p) in self._routes if p == path
            )
            raise HttpError(
                405,
                "method_not_allowed",
                f"{path} only supports {', '.join(allowed)}",
            )
        raise HttpError(404, "not_found", f"unknown path {path}")

    @property
    def routes(self) -> tuple[Route, ...]:
        return tuple(self._routes.values())


# -- body validation ---------------------------------------------------------------


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON number")


def parse_json_object(request: Request) -> dict[str, Any]:
    """The request body as a JSON object, or a structured 400. The
    non-standard ``NaN``/``Infinity``/``-Infinity`` tokens Python's
    parser accepts by default are refused here, once for every route."""
    if not request.body:
        raise HttpError(400, "empty_body", "request body must be a JSON object")
    try:
        payload = json.loads(request.body, parse_constant=_reject_constant)
    except (ValueError, UnicodeDecodeError) as exc:
        raise HttpError(400, "invalid_json", f"request body is not JSON: {exc}")
    if not isinstance(payload, dict):
        raise HttpError(
            400,
            "invalid_json",
            f"request body must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def reject_unknown_fields(
    payload: Mapping[str, Any], allowed: tuple[str, ...]
) -> None:
    """Unknown fields are client typos — refuse instead of silently
    ignoring (``topk`` must not quietly mean "default top_k")."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise HttpError(
            400,
            "unknown_field",
            f"unknown field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}",
        )


def require_str(payload: Mapping[str, Any], name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value.strip():
        raise HttpError(
            400, "invalid_field", f"{name} must be a non-empty string"
        )
    return value


def opt_str(payload: Mapping[str, Any], name: str) -> str | None:
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, str):
        raise HttpError(400, "invalid_field", f"{name} must be a string")
    return value


def _opt_int(
    payload: Mapping[str, Any], name: str, minimum: int, kind: str
) -> int | None:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise HttpError(
            400, "invalid_field", f"{name} must be a {kind} integer"
        )
    return value


def opt_positive_int(payload: Mapping[str, Any], name: str) -> int | None:
    return _opt_int(payload, name, 1, "positive")


def opt_nonnegative_int(payload: Mapping[str, Any], name: str) -> int | None:
    """An optional integer >= 0 (seeds, whose default is 0)."""
    return _opt_int(payload, name, 0, "non-negative")


def opt_unit_float(payload: Mapping[str, Any], name: str) -> float | None:
    """An optional float in [0, 1] (alpha-style mixing weights)."""
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HttpError(400, "invalid_field", f"{name} must be a number")
    if not 0.0 <= value <= 1.0:
        raise HttpError(400, "invalid_field", f"{name} must be in [0, 1]")
    return float(value)


def opt_number(payload: Mapping[str, Any], name: str) -> float | None:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HttpError(400, "invalid_field", f"{name} must be a number")
    return float(value)


def require_str_list(payload: Mapping[str, Any], name: str) -> list[str]:
    value = payload.get(name)
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(item, str) and item.strip() for item in value)
    ):
        raise HttpError(
            400,
            "invalid_field",
            f"{name} must be a non-empty array of non-empty strings",
        )
    return value
