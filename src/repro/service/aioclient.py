"""Asyncio HTTP client with pooled keep-alive connections.

The scatter-gather router talks to every shard on every request; with a
blocking client that would mean a thread per shard per request, and
with per-request connections a TCP handshake per shard per request.
:class:`AsyncServiceClient` removes both costs: requests are coroutines
(the router ``gather``\\ s one per shard), and completed requests return
their connection to a free list so the steady state is N keep-alive
sockets per shard, reused forever.

A pooled socket can go stale: a server restart, drain, or idle-timeout
closes it *between* our requests, and ``is_closing()`` cannot see a
FIN the event loop has not processed — the death only surfaces when
the next exchange fails.  That failure is unambiguous exactly when no
response byte has arrived yet **and** the connection came from the
pool: the request provably never reached a working server, so it
transparently retries once on a fresh connection.  The router sends
only reads, which are safe to replay; a fresh connection's failure is a
real error, not staleness.

Error mapping mirrors the blocking :class:`~repro.service.client.ServiceClient`:
non-200 / ``ok: false`` responses raise the same typed exceptions
(:class:`~repro.service.protocol.RequestShedError`,
:class:`~repro.service.protocol.RequestTimeoutError`,
:class:`~repro.service.protocol.ServiceClosedError`,
:class:`~repro.service.protocol.RemoteError`), so retry and
partial-result policies never string-match.  A response the server cut
short, or whose ``Content-Length`` is not a non-negative integer, is a
``RemoteError`` with status 502: the replica failed, not the request.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.protocol import RemoteError

_MAX_HEADERS = 64

#: Transport failures that can mean "the pooled socket was already
#: dead" when they strike before any response byte.
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class AsyncServiceClient:
    """Pooled keep-alive connections to one search-service endpoint.

    Concurrency is bounded by ``max_connections``: that many requests
    may be in flight at once; extra callers wait on the internal
    semaphore.  A connection is returned to the pool only after a
    complete, successful exchange — timeouts, cancellations, and
    protocol errors close it, so a stale socket can never serve a later
    request.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        max_connections: int = 16,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.connect_timeout = float(connect_timeout)
        self.max_connections = max(1, int(max_connections))
        self._free: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._semaphore = asyncio.Semaphore(self.max_connections)
        self._closed = False
        # Pool telemetry (surfaced per replica in the router's /stats).
        self.opened = 0  #: fresh TCP connections established
        self.reused = 0  #: requests served over a pooled connection
        self.discarded = 0  #: connections closed instead of repooled
        self.stale_retries = 0  #: exchanges replayed on a fresh socket

    # -- pool -----------------------------------------------------------
    @property
    def pooled_connections(self) -> int:
        """Idle keep-alive connections currently in the free list."""
        return len(self._free)

    def pool_stats(self) -> dict[str, int]:
        """Counter snapshot: opened / reused / discarded / stale retries."""
        return {
            "pooled": len(self._free),
            "opened": self.opened,
            "reused": self.reused,
            "discarded": self.discarded,
            "stale_retries": self.stale_retries,
        }

    async def _acquire(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """``(reader, writer, pooled)`` — pooled tells retry policy."""
        while self._free:
            reader, writer = self._free.pop()
            if writer.is_closing():
                self.discarded += 1
                continue
            self.reused += 1
            return reader, writer, True
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.connect_timeout
        )
        self.opened += 1
        return reader, writer, False

    def _discard(self, writer: asyncio.StreamWriter) -> None:
        self.discarded += 1
        try:
            writer.close()
        except Exception:  # pragma: no cover - best-effort close
            pass

    async def close(self) -> None:
        """Close every pooled connection (in-flight ones close on return)."""
        self._closed = True
        while self._free:
            _, writer = self._free.pop()
            self._discard(writer)
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- transport ------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        *,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """One request/response exchange under a deadline (seconds).

        Raises :class:`asyncio.TimeoutError` past the deadline and the
        typed service errors on error responses.
        """
        limit = self.timeout if timeout is None else float(timeout)
        return await asyncio.wait_for(self._request(method, path, body), limit)

    async def _request(
        self, method: str, path: str, body: dict[str, Any] | None
    ) -> dict[str, Any]:
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Connection: keep-alive\r\n"
        )
        if payload:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
            )
        head += "\r\n"
        wire = head.encode("latin-1") + payload
        async with self._semaphore:
            while True:
                reader, writer, pooled = await self._acquire()
                completed = False
                try:
                    writer.write(wire)
                    await writer.drain()
                    status, keep_alive, raw = await self._read_response(reader)
                    completed = True
                except _STALE_ERRORS:
                    # _read_response raises ConnectionResetError only
                    # before the first response byte; write/drain
                    # failures are pre-response by definition.  On a
                    # *pooled* connection that means the server had
                    # already hung up and the request never ran — a
                    # fresh socket replays it safely.  A fresh
                    # connection failing the same way is a live server
                    # error and surfaces; that also bounds the loop,
                    # since the pool only drains.
                    if not pooled:
                        raise
                finally:
                    # Cancellation (the caller's deadline) or any
                    # transport error lands here with completed=False:
                    # the connection is mid-exchange and must never be
                    # reused.
                    if completed and keep_alive and not self._closed:
                        self._free.append((reader, writer))
                    else:
                        self._discard(writer)
                if completed:
                    break
                self.stale_retries += 1
        return self._decode(status, raw)

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, bool, bytes]:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise RemoteError(f"malformed status line {line!r}", 502)
        try:
            status = int(parts[1])
        except ValueError:
            raise RemoteError(f"malformed status line {line!r}", 502)
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, separator, value = header.decode("latin-1").partition(":")
            if separator:
                headers[name.strip().lower()] = value.strip()
        else:
            raise RemoteError(f"more than {_MAX_HEADERS} response headers", 502)
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            raise RemoteError(f"bad Content-Length {length_text!r}", 502)
        try:
            raw = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise RemoteError(
                f"response body cut short: {len(exc.partial)} of {length} bytes",
                502,
            )
        return status, keep_alive, raw

    @staticmethod
    def _decode(status: int, raw: bytes) -> dict[str, Any]:
        from repro.service.client import raise_for_response

        try:
            decoded = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise RemoteError(f"non-JSON response ({status}): {exc}", status)
        raise_for_response(status, decoded)
        return decoded

    # -- endpoints ------------------------------------------------------
    async def health(self, *, timeout: float | None = None) -> dict[str, Any]:
        return await self.request("GET", "/health", timeout=timeout)

    async def stats(self, *, timeout: float | None = None) -> dict[str, Any]:
        return await self.request("GET", "/stats", timeout=timeout)
