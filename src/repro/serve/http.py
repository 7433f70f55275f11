"""Minimal HTTP/1.1 plumbing of the service.

:class:`~repro.serve.service.SimulationService` speaks a stdlib-only
dialect — one request per connection, ``Content-Length`` bodies,
``Connection: close``; its request parsing and response framing live
here, its routes in :mod:`repro.serve.service`.  Every response is
stamped with the ``repro.serve/1`` wire-protocol version in the
``X-Repro-Schema`` header (JSON *and* text bodies), which is how
clients detect a version-mismatched peer before trying to interpret
the document.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .protocol import PROTOCOL_SCHEMA, SCHEMA_HEADER, ErrorDocument, ServeError

SERVER_NAME = "repro-serve"

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = 1 << 20,
    timeout: float = 30.0,
) -> Tuple[str, str, dict, Optional[dict]]:
    """Parse one request: ``(method, path, query, json_payload)``.

    Raises :class:`ServeError` for anything the client should hear
    about (bad request line, oversized body, invalid JSON) and the
    usual connection errors for aborted sockets.
    """
    request_line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    if not request_line:
        raise ConnectionError("empty request")
    try:
        method, target, _version = request_line.decode("ascii").split()
    except ValueError:
        raise ServeError(400, "malformed request line")
    headers = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ServeError(400, "bad Content-Length")
    if length > max_body_bytes:
        raise ServeError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    payload = None
    if body:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServeError(400, "request body is not valid JSON")
    parts = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(parts.query).items()
    }
    return method.upper(), parts.path, query, payload


def trace_headers(trace_id: Optional[str]) -> dict:
    """The ``X-Repro-Trace-Id`` header of a response, if it has one."""
    return {"X-Repro-Trace-Id": trace_id} if trace_id else {}


async def respond(
    writer: asyncio.StreamWriter,
    status: int,
    document,
    headers: Optional[dict] = None,
) -> None:
    """Frame and send one response; ``document`` may be a JSON-able
    object or pre-rendered text (Prometheus exposition)."""
    headers = dict(headers or {})
    # A handler may override Content-Type (Prometheus exposition is
    # text); pop it so the header is emitted exactly once.
    content_type = None
    for name in list(headers):
        if name.lower() == "content-type":
            content_type = headers.pop(name)
    if isinstance(document, str):
        body = document.encode("utf-8")
        content_type = content_type or "text/plain; charset=utf-8"
    else:
        body = (
            json.dumps(document, sort_keys=True) + "\n"
        ).encode("utf-8")
        content_type = content_type or "application/json"
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Status')}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"{SCHEMA_HEADER}: {PROTOCOL_SCHEMA}",
        "Connection: close",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
    try:
        await writer.drain()
    except ConnectionError:
        pass


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    route: Callable[..., Awaitable[Tuple[int, object, dict]]],
    *,
    max_body_bytes: int,
) -> None:
    """Answer one connection: ``route(method, path, query, payload)``
    gives ``(status, document, headers)``.  A :class:`ServeError`
    becomes its error document and any other exception a 500, so a
    handler bug never kills the server."""
    try:
        try:
            method, path, query, payload = await read_request(
                reader, max_body_bytes=max_body_bytes
            )
        except ServeError as exc:
            await respond(writer, exc.status, exc.document(), exc.headers)
            return
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError, ValueError):
            return  # malformed/aborted connection; nothing to answer
        try:
            status, document, headers = await route(
                method, path, query, payload
            )
        except ServeError as exc:
            status, document, headers = (
                exc.status, exc.document(), exc.headers
            )
        except Exception as exc:  # noqa: BLE001 — never kill the server
            status, document, headers = (
                500,
                ErrorDocument(
                    error=f"{type(exc).__name__}: {exc}", status=500
                ).to_wire(),
                {},
            )
        await respond(writer, status, document, headers)
    finally:
        try:
            writer.close()
        except Exception:  # noqa: BLE001
            pass
