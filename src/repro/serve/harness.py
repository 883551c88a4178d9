"""Host a gateway in a background thread.

The tests and ``examples/http_client.py`` need a real listening
gateway without giving up the calling thread.
:class:`GatewayHarness` runs an event loop in a daemon thread, starts a
:class:`~repro.serve.server.GatewayServer` on an ephemeral port, and
exposes a small synchronous HTTP client (stdlib ``http.client``) for
driving it — requests issued from any number of caller threads exercise
the same code path as remote clients.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from collections.abc import Callable
from typing import Any

from repro.core.service import ExpertSearchService
from repro.serve.app import GatewayConfig, ServeApp
from repro.serve.server import GatewayServer


class GatewayHarness:
    """A gateway on ``127.0.0.1:<ephemeral>`` in a background thread."""

    def __init__(
        self,
        source: Callable[[], ExpertSearchService],
        *,
        label: Callable[[], str | None] | None = None,
        config: GatewayConfig | None = None,
        reloadable: bool = True,
    ):
        self.app = ServeApp(
            source, label=label, config=config, reloadable=reloadable
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gateway-harness", daemon=True
        )
        self._server = GatewayServer(self.app, host="127.0.0.1", port=0)
        self._startup: "asyncio.Future[Any] | None" = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, *, wait_ready: bool = True, timeout: float = 120.0) -> None:
        """Open the socket; optionally block until the first generation
        is loaded (``wait_ready=False`` leaves the gateway
        answering 503 on ``/readyz`` while the load runs)."""
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self._server.start(), self._loop
        ).result(timeout)
        startup = asyncio.run_coroutine_threadsafe(
            self.app.startup(), self._loop
        )
        self._startup = startup  # type: ignore[assignment]
        if wait_ready:
            startup.result(timeout)

    def wait_ready(self, timeout: float = 120.0) -> None:
        assert self._startup is not None, "start() first"
        self._startup.result(timeout)  # type: ignore[union-attr]

    def stop(self, timeout: float = 30.0) -> None:
        asyncio.run_coroutine_threadsafe(
            self._server.shutdown(), self._loop
        ).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        if not self._thread.is_alive():
            # the loop has stopped; release its executor threads and its
            # self-pipe sockets
            self._loop.run_until_complete(self._loop.shutdown_default_executor())
            self._loop.close()

    def __enter__(self) -> "GatewayHarness":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- addressing --------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- a small synchronous client ----------------------------------------------

    def connection(self) -> http.client.HTTPConnection:
        """A fresh keep-alive connection (one per caller thread)."""
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        *,
        headers: dict[str, str] | None = None,
        conn: http.client.HTTPConnection | None = None,
    ) -> tuple[int, dict[str, str], Any]:
        """One request → ``(status, headers, parsed JSON body)``."""
        owned = conn is None
        connection = self.connection() if conn is None else conn
        try:
            body = (
                None if payload is None else json.dumps(payload).encode()
            )
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            raw = response.read()
            parsed = json.loads(raw) if raw else None
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                parsed,
            )
        finally:
            if owned:
                connection.close()
