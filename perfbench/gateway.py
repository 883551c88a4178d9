"""The gateway as a child process, and a keep-alive HTTP/1.1 client.

The client is a plain socket with pre-encoded requests so that, on the
cheapest workload, the load generator spends as little of the two cores as
possible; ``client.cpu_share`` reports what it does spend.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import time
from typing import Any

#: the rate limiter stays on, with a ceiling one closed-loop client cannot
#: reach (requests/second and burst)
RATE_CEILING = "1000000000"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class Connection:
    """One keep-alive connection to the gateway."""

    def __init__(self, port: int, timeout: float = 60.0):
        self._port = port
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self._port), self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._buffer = sock, b""
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def send(self, request: bytes) -> tuple[int, bytes]:
        """Send one encoded request; return (status, body)."""
        sock = self._sock or self._connect()
        sock.sendall(request)
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            chunk = sock.recv(65536)
            if not chunk:
                self.close()
                raise ConnectionError("gateway closed the connection")
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        head = buffer[:end].lower()
        status = int(head[9:12])
        length = 0
        at = head.find(b"content-length:")
        if at >= 0:
            stop = head.find(b"\r\n", at)
            length = int(head[at + 15 : stop if stop >= 0 else None])
        body_end = end + 4 + length
        while len(buffer) < body_end:
            chunk = sock.recv(65536)
            if not chunk:
                self.close()
                raise ConnectionError("gateway closed the connection")
            buffer += chunk
        self._buffer = buffer[body_end:]
        if b"connection: close" in head:
            self.close()
        return status, buffer[end + 4 : body_end]


def encode(method: str, path: str, payload: Any = None, request_id: int | None = None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    head = f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: {len(body)}\r\n"
    if request_id is not None:
        head += f"x-request-id: {request_id}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def get_json(port: int, path: str) -> tuple[int, Any]:
    conn = Connection(port)
    try:
        status, body = conn.send(encode("GET", path))
    finally:
        conn.close()
    return status, json.loads(body)


class Gateway:
    """One ``repro serve`` child process on a free local port."""

    def __init__(self, argv: list[str], env: dict[str, str], log_path: str, cpu: int | None):
        self.port = free_port()
        self._cpu = cpu
        self._argv = argv + ["--port", str(self.port), "--rate-limit", RATE_CEILING, "--burst", RATE_CEILING]
        self._env = env
        self._log_path = log_path
        self._proc: subprocess.Popen[bytes] | None = None

    def start(self, timeout: float = 120.0) -> float:
        """Spawn the child; return seconds until ``/readyz`` first answers 200."""
        with open(self._log_path, "ab") as log:
            started = time.perf_counter()
            self._proc = subprocess.Popen(
                self._argv, env=self._env, stdout=log, stderr=subprocess.STDOUT
            )
        if self._cpu is not None:
            # before the child starts any thread, so all of them inherit it
            os.sched_setaffinity(self._proc.pid, {self._cpu})
        deadline = started + timeout
        while time.perf_counter() < deadline:
            if self._proc.poll() is not None:
                raise RuntimeError(f"gateway exited with {self._proc.returncode}; see {self._log_path}")
            probe = Connection(self.port, timeout=5.0)
            try:
                status, _ = probe.send(encode("GET", "/readyz"))
            except OSError:
                status = 0
            finally:
                probe.close()
            if status == 200:
                return time.perf_counter() - started
            time.sleep(0.002)
        raise RuntimeError(f"gateway not ready after {timeout:.0f} s; see {self._log_path}")

    def peak_rss_mb(self) -> float:
        """The child's peak resident set size so far (VmHWM)."""
        assert self._proc is not None
        with open(f"/proc/{self._proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM the child (a graceful gateway shutdown) and wait for it."""
        proc, self._proc = self._proc, None
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"gateway ignored SIGTERM; see {self._log_path}")


def split_cpus() -> tuple[int | None, int | None]:
    """One CPU for the gateway and another for the client, when there are
    two: requests and the gateway's own thread hops then never wait for a
    CPU to be woken by another, which steadies the runs."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env
