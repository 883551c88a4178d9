"""``repro.serve`` — the asyncio HTTP serving gateway.

The first networked front end over :class:`repro.core.ExpertSearchService`:
a dependency-free (stdlib asyncio, hand-rolled HTTP/1.1) gateway that
serves the query, batch, observe, and crowd workloads over a socket,
with per-client token-bucket rate limiting, an operational metrics
endpoint, health/readiness probes, and graceful snapshot hot-reload.

Module map (request path top to bottom):

* :mod:`~repro.serve.server` — the asyncio HTTP/1.1 wire layer:
  connection loop, bounded request parsing, keep-alive, graceful
  shutdown;
* :mod:`~repro.serve.app` — :class:`ServeApp`: dispatch = rate limit →
  route → handler, with metrics around every request;
* :mod:`~repro.serve.router` — request/response model, route table,
  structured JSON error payloads, body validation helpers;
* :mod:`~repro.serve.routes` — the endpoint handlers
  (``/v1/query``, ``/v1/query/batch``, ``/v1/observe``,
  ``/v1/crowd/*``, ``/v1/metrics``, ``/healthz``, ``/readyz``,
  ``/admin/reload``);
* :mod:`~repro.serve.limiter` — the per-client token bucket;
* :mod:`~repro.serve.metrics` — gateway counters and per-route
  latency percentiles;
* :mod:`~repro.serve.reload` — snapshot generations: load + compile a
  new service off the event loop and atomically swap it in; requests
  already running finish on the old one;
* :mod:`~repro.serve.harness` — run a gateway in a background thread
  (used by the tests and the example client).
"""

from repro.serve.app import GatewayConfig, ServeApp
from repro.serve.harness import GatewayHarness
from repro.serve.limiter import TokenBucketLimiter
from repro.serve.metrics import GatewayMetrics
from repro.serve.reload import Generation, HotReloader
from repro.serve.router import HttpError, Request, Response, Router
from repro.serve.server import GatewayServer, run_gateway

__all__ = [
    "GatewayConfig",
    "GatewayHarness",
    "GatewayMetrics",
    "GatewayServer",
    "Generation",
    "HotReloader",
    "HttpError",
    "Request",
    "Response",
    "Router",
    "ServeApp",
    "TokenBucketLimiter",
    "run_gateway",
]
