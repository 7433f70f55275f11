"""The typed ``repro.serve`` client: one HTTP transport for the service.

Everything that talks to a :class:`~repro.serve.service.SimulationService`
goes through this module — the load generator, the acceptance tests,
the benchmark's open-loop driver, and the CI smoke scripts.  There is
deliberately no urllib / raw-socket HTTP anywhere else under ``src/``
or ``tests/``.

The transport is the same stdlib-only dialect the service speaks (one
request per connection, ``Connection: close``), offered both
synchronously (:class:`ServeClient`, plain sockets) and asynchronously
(:class:`AsyncServeClient`, asyncio) over a shared request builder and
response parser.  Every response is checked for the ``repro.serve/1``
stamp in the ``X-Repro-Schema`` header — a peer speaking a different
protocol version raises :class:`~repro.serve.protocol.WireError` before
any body is interpreted.

Transport-level failures (refused connection, timeout, truncated
response) raise :class:`TransportError`, a ``ConnectionError`` subclass,
so a caller can catch one family for "the service is unreachable"
and let HTTP-level errors flow through as :class:`Response` objects.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from .protocol import (
    PROTOCOL_SCHEMA,
    SCHEMA_HEADER,
    ErrorDocument,
    JobDocument,
    SubmitRequest,
    TERMINAL_STATES,
    WireError,
)

DEFAULT_TIMEOUT_S = 30.0


class TransportError(ConnectionError):
    """The peer could not be reached or sent a truncated/garbled
    response — retryable, unlike an HTTP-level error."""


@dataclass
class Response:
    """One parsed HTTP response.

    ``document`` is the decoded JSON body for ``application/json``
    responses and the raw text for anything else (Prometheus
    exposition).  ``headers`` preserves the server's header casing;
    use :meth:`header` for case-insensitive lookup.
    """

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    document: Union[dict, list, str, None] = None

    def header(self, name: str) -> Optional[str]:
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def job(self) -> JobDocument:
        """The body as a typed job document (raises ``WireError`` if
        the body is not a ``repro.serve/1`` job)."""
        return JobDocument.from_wire(self.document)

    def error(self) -> ErrorDocument:
        return ErrorDocument.from_wire(self.document)


def _build_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Union[dict, list, bytes, None],
) -> bytes:
    if isinstance(payload, bytes):
        body = payload
    elif payload is not None:
        body = json.dumps(payload).encode("utf-8")
    else:
        body = b""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        "Accept: application/json",
        "Connection: close",
        f"Content-Length: {len(body)}",
    ]
    if body:
        lines.append("Content-Type: application/json")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _parse_response(raw: bytes) -> Response:
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise TransportError("truncated response (no header terminator)")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise TransportError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise TransportError(f"malformed status line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip()] = value.strip()
    lowered = {name.lower(): value for name, value in headers.items()}
    try:
        length = int(lowered.get("content-length", "0") or "0")
    except ValueError:
        raise TransportError("bad Content-Length in response")
    if len(body) < length:
        raise TransportError(
            f"truncated response body ({len(body)}/{length} bytes)"
        )
    body = body[:length]
    stamp = lowered.get(SCHEMA_HEADER.lower())
    if stamp != PROTOCOL_SCHEMA:
        raise WireError(
            f"response carries {SCHEMA_HEADER}: {stamp!r}, "
            f"expected {PROTOCOL_SCHEMA!r} — peer is not a "
            "repro.serve/1 server"
        )
    content_type = lowered.get("content-type", "application/json")
    if content_type.startswith("application/json"):
        try:
            document = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise TransportError("response body is not valid JSON")
    else:
        document = body.decode("utf-8", errors="replace")
    return Response(status=status, headers=headers, document=document)


async def request_async(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Union[dict, list, bytes, None] = None,
    *,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> Response:
    """One asyncio HTTP exchange; raises :class:`TransportError` (or
    ``OSError`` / ``asyncio.TimeoutError``) when the peer is down."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}")
    try:
        writer.write(_build_request(host, port, method, path, payload))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        try:
            writer.close()
        except Exception:  # noqa: BLE001 — teardown best-effort
            pass
    return _parse_response(raw)


def request_sync(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Union[dict, list, bytes, None] = None,
    *,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> Response:
    """Blocking twin of :func:`request_async` (plain sockets)."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}")
    try:
        sock.sendall(_build_request(host, port, method, path, payload))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    except socket.timeout:
        raise TransportError(f"request to {host}:{port} timed out")
    finally:
        sock.close()
    return _parse_response(b"".join(chunks))


class _ClientMixin:
    """Path construction shared by the sync and async clients."""

    host: str
    port: int

    @staticmethod
    def _submit_path(request: SubmitRequest, wait: bool) -> str:
        return request.path + ("?wait=1" if wait else "")

    @staticmethod
    def _trace_path(job_id: str, fmt: Optional[str]) -> str:
        path = f"/v1/jobs/{job_id}/trace"
        return f"{path}?format={fmt}" if fmt else path

    @staticmethod
    def _metrics_path(fmt: Optional[str]) -> str:
        return f"/metrics?format={fmt}" if fmt else "/metrics"

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class ServeClient(_ClientMixin):
    """Blocking typed client for one service."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = DEFAULT_TIMEOUT_S) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, method: str, path: str, payload=None, *,
                timeout: Optional[float] = None) -> Response:
        return request_sync(
            self.host, self.port, method, path, payload,
            timeout=self.timeout if timeout is None else timeout,
        )

    def submit(self, request: SubmitRequest, *, wait: bool = False,
               timeout: Optional[float] = None) -> Response:
        return self.request("POST", self._submit_path(request, wait),
                            request.to_wire(), timeout=timeout)

    def job(self, job_id: str) -> Response:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def wait_job(self, job_id: str, *, timeout: float = 60.0,
                 poll_s: float = 0.05) -> JobDocument:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            response = self.job(job_id)
            if response.ok:
                document = response.job()
                if document.state in TERMINAL_STATES:
                    return document
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout}s "
                    f"(last: {response.document})"
                )
            time.sleep(poll_s)

    def cancel(self, job_id: str) -> Response:
        return self.request("POST", f"/v1/jobs/{job_id}/cancel", {})

    def trace(self, job_id: str, *, fmt: Optional[str] = None) -> Response:
        return self.request("GET", self._trace_path(job_id, fmt))

    def healthz(self, *, timeout: Optional[float] = None) -> Response:
        return self.request("GET", "/healthz", timeout=timeout)

    def metrics(self, *, fmt: Optional[str] = None) -> Response:
        return self.request("GET", self._metrics_path(fmt))


class AsyncServeClient(_ClientMixin):
    """Asyncio twin of :class:`ServeClient` — used by the load
    generator and the open-loop benchmark."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = DEFAULT_TIMEOUT_S) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    async def request(self, method: str, path: str, payload=None, *,
                      timeout: Optional[float] = None) -> Response:
        return await request_async(
            self.host, self.port, method, path, payload,
            timeout=self.timeout if timeout is None else timeout,
        )

    async def submit(self, request: SubmitRequest, *, wait: bool = False,
                     timeout: Optional[float] = None) -> Response:
        return await self.request("POST", self._submit_path(request, wait),
                                  request.to_wire(), timeout=timeout)

    async def job(self, job_id: str) -> Response:
        return await self.request("GET", f"/v1/jobs/{job_id}")

    async def wait_job(self, job_id: str, *, timeout: float = 60.0,
                       poll_s: float = 0.05) -> JobDocument:
        deadline = time.monotonic() + timeout
        while True:
            response = await self.job(job_id)
            if response.ok:
                document = response.job()
                if document.state in TERMINAL_STATES:
                    return document
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout}s "
                    f"(last: {response.document})"
                )
            await asyncio.sleep(poll_s)

    async def cancel(self, job_id: str) -> Response:
        return await self.request("POST", f"/v1/jobs/{job_id}/cancel", {})

    async def trace(self, job_id: str, *,
                    fmt: Optional[str] = None) -> Response:
        return await self.request("GET", self._trace_path(job_id, fmt))

    async def healthz(self, *, timeout: Optional[float] = None) -> Response:
        return await self.request("GET", "/healthz", timeout=timeout)

    async def metrics(self, *, fmt: Optional[str] = None) -> Response:
        return await self.request("GET", self._metrics_path(fmt))
