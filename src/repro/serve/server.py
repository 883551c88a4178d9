"""The asyncio HTTP/1.1 wire layer.

Hand-rolled on ``asyncio.start_server`` — no http.server, no external
framework. The parser is deliberately strict and bounded: request line
+ headers under ``max_header_bytes`` (431 beyond), bodies under
``max_body_bytes`` (413 beyond), ``Content-Length`` only (chunked
requests get 501 — no gateway client needs them), keep-alive per
HTTP/1.1 defaults with an idle timeout that bounds each request's read
(an ``asyncio.timeout`` scope, so a read spawns no extra task).
Responses always carry ``Content-Length`` and a JSON body.

Graceful shutdown: stop accepting, let in-flight requests finish (up to
``shutdown_grace`` seconds), then cancel lingering keep-alive readers
and drop the serving generation.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from collections.abc import Callable

from repro.serve.app import ServeApp
from repro.serve.router import HttpError, Request, Response

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_MAX_HEADER_COUNT = 100


class GatewayServer:
    """One listening socket serving a :class:`ServeApp`."""

    def __init__(self, app: ServeApp, *, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._requested_host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._closing = False
        self.host = host
        self.port = port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._requested_host, self._requested_port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, close connections."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = (
            asyncio.get_running_loop().time() + self.app.config.shutdown_grace
        )
        while (
            self.app.metrics.in_flight > 0
            and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.02)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.app.shutdown()

    # -- connection loop ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else str(peername)
        try:
            while not self._closing:
                try:
                    async with asyncio.timeout(self.app.config.idle_timeout):
                        request = await self._read_request(reader, peer)
                except (
                    TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                except HttpError as exc:
                    # wire-level violation: answer if possible, then close
                    self.app.metrics.begin()
                    self.app.metrics.end("<malformed>", exc.status, 0.0)
                    await self._write_response(
                        writer, exc.to_response(), keep_alive=False
                    )
                    break
                if request is None:
                    break
                response = await self.app.dispatch(request)
                keep_alive = self._keep_alive(request) and not self._closing
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass
        except ConnectionError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    def _keep_alive(request: Request) -> bool:
        return request.headers.get("connection", "keep-alive").lower() != "close"

    async def _read_request(
        self, reader: asyncio.StreamReader, peer: str
    ) -> Request | None:
        """Parse one request off the stream; None on clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        try:
            parts = line.decode("latin-1").strip().split()
        except UnicodeDecodeError:
            raise HttpError(400, "bad_request_line", "undecodable request line")
        if len(parts) != 3:
            raise HttpError(
                400, "bad_request_line", "expected 'METHOD /path HTTP/1.x'"
            )
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise HttpError(
                400, "bad_request_line", f"unsupported version {version!r}"
            )
        headers: dict[str, str] = {}
        header_bytes = len(line)
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise HttpError(
                    400, "bad_header", "connection closed mid-headers"
                )
            header_bytes += len(raw)
            if (
                header_bytes > self.app.config.max_header_bytes
                or len(headers) >= _MAX_HEADER_COUNT
            ):
                raise HttpError(
                    431,
                    "headers_too_large",
                    f"headers exceed {self.app.config.max_header_bytes} bytes",
                )
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep or not name.strip():
                raise HttpError(400, "bad_header", f"malformed header {raw!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise HttpError(
                501,
                "chunked_unsupported",
                "chunked request bodies are not supported; send "
                "Content-Length",
            )
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(
                400, "bad_header", f"malformed Content-Length {length_text!r}"
            )
        if length < 0:
            raise HttpError(
                400, "bad_header", "Content-Length must be non-negative"
            )
        if length > self.app.config.max_body_bytes:
            raise HttpError(
                413,
                "body_too_large",
                f"request body is limited to "
                f"{self.app.config.max_body_bytes} bytes, got {length}",
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return Request(
            method=method, path=path, headers=headers, body=body, peer=peer
        )

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        body = response.encode_body()
        reason = _REASONS.get(response.status, "Unknown")
        head_lines = [
            f"HTTP/1.1 {response.status} {reason}",
            "content-type: application/json",
            f"content-length: {len(body)}",
            f"connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in response.headers.items():
            head_lines.append(f"{name}: {value}")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def run_gateway(
    app: ServeApp,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    install_signals: bool = True,
    echo: Callable[[str], None] = print,
) -> None:
    """Run a gateway until SIGTERM/SIGINT (the CLI entry point).

    The socket opens before the first snapshot generation loads, so
    probes answer immediately: ``/healthz`` 200, ``/readyz`` 503 until
    the load + compile finishes. SIGHUP hot-reloads the snapshot."""
    server = GatewayServer(app, host=host, port=port)
    await server.start()
    echo(
        f"listening on http://{server.host}:{server.port} "
        "(loading snapshot, readyz=503 until done)"
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _request_stop() -> None:
        stop.set()

    def _request_reload() -> None:
        async def _reload() -> None:
            try:
                generation = await app.trigger_reload()
            except HttpError as exc:
                echo(f"SIGHUP reload failed: {exc.message}")
            else:
                echo(
                    f"SIGHUP reload complete: generation "
                    f"{generation.number} ({generation.label})"
                )

        loop.create_task(_reload())

    if install_signals:
        loop.add_signal_handler(signal.SIGTERM, _request_stop)
        loop.add_signal_handler(signal.SIGINT, _request_stop)
        loop.add_signal_handler(signal.SIGHUP, _request_reload)
    try:
        generation = await app.startup()
        echo(
            f"ready: generation {generation.number}"
            + (
                f" (snapshot {generation.label})"
                if generation.label is not None
                else ""
            )
        )
        await stop.wait()
    except Exception as exc:
        print(f"gateway startup failed: {exc}", file=sys.stderr)
        raise
    finally:
        if install_signals:
            loop.remove_signal_handler(signal.SIGTERM)
            loop.remove_signal_handler(signal.SIGINT)
            loop.remove_signal_handler(signal.SIGHUP)
        await server.shutdown()
        echo("gateway stopped")
