"""Per-request layer breakdown of a traced run.

Each timed request has one client span (socket to socket, recorded by the
benchmark) and the server spans that carry its ``x-request-id``. A span's
self time is its duration minus the part its child spans cover; the client
span's self time is the wire (HTTP read/write, the event loop, and
connection handling). Because every span nests inside its parent, the self
times of one request sum to the client-measured time; :func:`breakdown`
counts the requests for which either property fails.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from typing import Any

from spans import COMPILED, covered_ns

#: span name -> the layer bucket its self time counts towards
BUCKETS = {
    "client": "wire",
    "serve.dispatch": "dispatch",
    "serve.encode": "encode",
    "service.find_experts": "service",
    "service.observe": "service",
    "index.find_experts": "score",
    "index.query_engine": "compile",
    "index.observe": "write",
    "analyzer.analyze": "analyzer",
}


class Breakdown:
    """The layer breakdown of one timed request."""

    __slots__ = ("kind", "total_ns", "self_ns", "need_ns", "resource_ns", "compile_ns", "reached_finder")

    def __init__(self, kind: str, total_ns: int):
        self.kind = kind
        self.total_ns = total_ns
        self.self_ns: dict[str, int] = defaultdict(int)
        self.need_ns: list[int] = []
        self.resource_ns: list[int] = []
        self.compile_ns: list[int] = []
        self.reached_finder = False


def breakdown(
    client: Iterable[tuple[str, str, int, int]], spans: list[list[Any]]
) -> tuple[list[Breakdown], int]:
    """Break each client request (request id, kind, start, end) into layer
    self times; return them with the number of requests whose spans do not
    nest or whose self times do not sum to the client time."""
    by_request: dict[str, list[list[Any]]] = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            by_request[span[5]].append(span)
    requests: list[Breakdown] = []
    violations = 0
    for request_id, kind, start, end in client:
        own = by_request.get(request_id, [])
        ids = {span[0] for span in own}
        names = {span[0]: span[2] for span in own}
        bounds = {span[0]: (span[3], span[4]) for span in own}
        bounds["client"] = (start, end)
        children: dict[object, list[list[Any]]] = defaultdict(list)
        broken = False
        for span in own:
            parent = span[1] if span[1] in ids else "client"
            if span[1] is not None and span[1] not in ids:
                broken = True
            lo, hi = bounds[parent]
            if span[3] < lo or span[4] > hi:
                broken = True
            children[parent].append(span)
        request = Breakdown(kind, end - start)
        summed = 0
        for node, name in [("client", "client")] + [(s[0], s[2]) for s in own]:
            lo, hi = bounds[node]
            own_ns = (hi - lo) - covered_ns(lo, hi, [(c[3], c[4]) for c in children[node]])
            summed += own_ns
            request.self_ns[BUCKETS.get(name, "other")] += own_ns
        for span in own:
            duration = span[4] - span[3]
            if span[2] == "analyzer.analyze":
                parent_name = names.get(span[1])
                (request.need_ns if parent_name == "index.find_experts" else request.resource_ns).append(duration)
            elif span[2] == "index.query_engine" and span[6] == COMPILED:
                request.compile_ns.append(duration)
            elif span[2] == "index.find_experts":
                request.reached_finder = True
        if broken or summed != end - start:
            violations += 1
        requests.append(request)
    return requests, violations
