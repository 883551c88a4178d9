"""Gateway application state and the dispatch pipeline.

:class:`ServeApp` ties the pieces together: one :class:`HotReloader`
(the serving generations), one :class:`TokenBucketLimiter` (or none),
one :class:`GatewayMetrics`, and the route table. ``dispatch`` is the
entire request pipeline the wire layer calls: rate limit → route →
handler, with metrics around the whole thing and every failure rendered
as a structured JSON error.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.service import ExpertSearchService
from repro.serve.limiter import TokenBucketLimiter
from repro.serve.metrics import GatewayMetrics
from repro.serve.reload import Generation, HotReloader
from repro.serve.router import HttpError, Request, Response
from repro.serve.routes import batch_cost, build_router

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one gateway process."""

    #: per-client token-bucket refill rate (tokens/second); ``None``
    #: disables rate limiting entirely
    rate_limit: float | None = 50.0
    #: bucket capacity (burst size) per client
    burst: float = 100.0
    #: request bodies beyond this answer 413
    max_body_bytes: int = 1 << 20
    #: cumulative request-header bytes beyond this answer 431
    max_header_bytes: int = 16384
    #: a connection is closed when its next request has not fully
    #: arrived this many seconds after the connect or the last answer
    #: (an idle keep-alive, or a read stalled mid-request)
    idle_timeout: float = 30.0
    #: upper bound on needs per batch request
    max_batch_needs: int = 256
    #: seconds a graceful shutdown waits for in-flight requests
    shutdown_grace: float = 5.0


class ServeApp:
    """One gateway: generations, limiter, metrics, routes."""

    def __init__(
        self,
        source: Callable[[], ExpertSearchService],
        *,
        label: Callable[[], str | None] | None = None,
        config: GatewayConfig | None = None,
        reloadable: bool = True,
    ):
        self.config = config if config is not None else GatewayConfig()
        self.metrics = GatewayMetrics()
        self.reloader = HotReloader(source, label=label)
        self.reloadable = reloadable
        self.limiter = (
            TokenBucketLimiter(self.config.rate_limit, self.config.burst)
            if self.config.rate_limit
            else None
        )
        self.router = build_router(self)
        #: per-generation co-support communication graph for the team
        #: endpoint (built lazily, keyed by generation number, with the
        #: admitted-resource count it was built from)
        self._team_graphs: dict[int, tuple[int, nx.Graph]] = {}

    # -- lifecycle ---------------------------------------------------------------

    async def startup(self) -> Generation:
        """Load the first generation; readiness flips when this
        returns. The caller decides whether to await it before or after
        the listening socket opens (the CLI opens the socket first so
        ``/healthz``/``/readyz`` answer during a slow load)."""
        return await self.reloader.reload()

    async def trigger_reload(self) -> Generation:
        """Reload for ``/admin/reload`` and SIGHUP, with accounting."""
        if not self.reloadable:
            raise HttpError(
                409,
                "not_reloadable",
                "this gateway was built in-process without a snapshot; "
                "nothing to reload from",
            )
        try:
            generation = await self.reloader.reload()
        except HttpError:
            raise
        except Exception as exc:
            self.metrics.reload_failures += 1
            raise HttpError(
                500, "reload_failed", f"{type(exc).__name__}: {exc}"
            )
        self.metrics.reloads += 1
        self._team_graphs.clear()
        return generation

    def shutdown(self) -> None:
        self.reloader.shutdown()
        self._team_graphs.clear()

    # -- dispatch ----------------------------------------------------------------

    async def dispatch(self, request: Request) -> Response:
        """The whole request pipeline; never raises."""
        self.metrics.begin()
        started = time.perf_counter()
        route_name = "<unrouted>"
        try:
            route = self.router.resolve(request.method, request.path)
            route_name = route.path
            if route.limited and self.limiter is not None:
                cost = (
                    batch_cost(request)
                    if route.path == "/v1/query/batch"
                    else 1.0
                )
                retry_after = self.limiter.try_acquire(
                    request.client_key, cost
                )
                if retry_after > 0.0:
                    raise HttpError(
                        429,
                        "rate_limited",
                        f"client {request.client_key!r} exceeded "
                        f"{self.limiter.rate:g} requests/second "
                        f"(burst {self.limiter.burst:g})",
                        retry_after=retry_after,
                    )
            response = await route.handler(request)
        except HttpError as exc:
            response = exc.to_response()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            response = HttpError(
                500, "internal_error", f"{type(exc).__name__}: {exc}"
            ).to_response()
        self.metrics.end(
            route_name, response.status, time.perf_counter() - started
        )
        return response

    # -- shared derived state ----------------------------------------------------

    def team_graph(self, generation: Generation) -> nx.Graph:
        """The co-support communication graph of one generation:
        candidates are linked when they support the same resource
        (Table-1 gathering places both within graph distance of it).
        Rebuilt whenever the generation's index has admitted resources
        since, evidence-only ones included; the evidence is read under
        the service lock, since observes append to it. Safe to race —
        builders over the same evidence produce the identical graph and
        the last assignment wins. networkx is imported here, on the team
        route only, so gateway start-up does not pay for it."""
        service = generation.service
        cached = self._team_graphs.get(generation.number)
        if cached is not None and (
            cached[0] == service.finder.segmented_index.resource_count
        ):
            return cached[1]
        import networkx as nx

        graph = nx.Graph()
        admitted, evidence = service.evidence()
        candidates = evidence.candidates
        bounds = evidence.off.tolist()
        cand = evidence.cand.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            # the candidate table is sorted, so sorted indexes name the
            # supporters in id order
            cids = [candidates[c] for c in sorted(set(cand[start:stop]))]
            graph.add_nodes_from(cids)
            for i, a in enumerate(cids):
                for b in cids[i + 1 :]:
                    graph.add_edge(a, b)
        self._team_graphs = {generation.number: (admitted, graph)}
        return graph
