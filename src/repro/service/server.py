"""Stdlib-only asyncio HTTP/1.1 front-end over a ``NearDupEngine``.

One process loads the engine directory once, warms the list cache with
the Zipf-head lists, and serves:

* ``POST /search`` — one query, admitted through the micro-batcher so
  concurrent clients coalesce into planned executor batches;
* ``POST /batch``  — a client-side batch, executed as one planned call;
* ``GET  /health`` — liveness plus index identity;
* ``GET  /stats``  — :class:`~repro.service.stats.ServiceStats`
  snapshot, cache pressure, and engine metadata.

The HTTP layer is deliberately minimal (request line, headers,
``Content-Length`` bodies, keep-alive) — no dependency beyond
``asyncio`` — because the interesting machinery is behind it: admission
control, deadlines, micro-batching, and graceful drain.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import logging
import os
import socket
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine import NearDupEngine
from repro.service.batcher import MicroBatcher
from repro.service.protocol import (
    ProtocolError,
    ServiceClosedError,
    error_body,
    parse_flag,
    parse_theta,
    parse_timeout,
    parse_tokens,
    result_to_wire,
    stats_to_wire,
)
from repro.service.stats import ServiceStats

logger = logging.getLogger(__name__)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_HEADERS = 64
#: Largest request body accepted (a larger ``Content-Length`` is a 400).
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass
class ServiceConfig:
    """Tuning knobs of one service instance (see ``docs/SERVICE.md``)."""

    host: str = "127.0.0.1"
    port: int = 8080  #: 0 = ephemeral (the bound port lands in ``service.port``)
    procs: int = 1  #: prefork worker processes (1 = single in-process server)
    reuse_port: bool = False  #: per-worker SO_REUSEPORT sockets instead of one shared accept socket
    max_batch: int = 16  #: most requests one dispatch runs on the event loop
    max_queue: int = 128
    timeout_ms: float = 30000.0
    cache_bytes: int = 64 * 1024 * 1024
    result_cache: bool | None = None  #: None = on for live backends, off for static
    warmup_lists: int = 64  #: hot lists preloaded at startup; 0 disables
    theta: float = 0.8  #: default threshold when a request omits it


class HttpServiceBase:
    """Minimal asyncio HTTP/1.1 plumbing shared by front-end services.

    Subclasses (the search service, the shard router) implement
    ``_route(method, path, body) -> (status, payload)`` and reuse the
    connection handling: request-line/header/body parsing with bounded
    sizes, keep-alive, JSON responses, and protocol-error mapping.  A
    subclass's ``config`` must carry ``host`` and ``port``.
    """

    config: Any

    def __init__(self) -> None:
        self._server: asyncio.Server | None = None
        self._draining = False
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------
    async def _start_listener(self, *, sock: socket.socket | None = None) -> None:
        """Bind (or adopt ``sock``) and record the live port."""
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port,
                reuse_port=getattr(self.config, "reuse_port", False) or None,
            )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def _close_listener(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- routing hook ---------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        raise NotImplementedError

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                status, payload = await self._route(method, path, body)
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except ProtocolError as exc:
            status, payload = error_body(exc)
            try:
                self._write_response(writer, status, payload, keep_alive=False)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown cancels idle keep-alive handlers;
            # finish normally (closing the socket below) instead of
            # letting the protocol callback log the cancellation.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(f"malformed request line {line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, separator, value = header.decode("latin-1").partition(":")
            if not separator:
                raise ProtocolError(f"malformed header {header!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ProtocolError(f"more than {_MAX_HEADERS} headers")
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(f"bad Content-Length {length_text!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    @staticmethod
    def _decode(body: bytes) -> dict[str, Any]:
        try:
            decoded = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}")
        if not isinstance(decoded, dict):
            raise ProtocolError("body must be a JSON object")
        return decoded


class SearchService(HttpServiceBase):
    """The served engine: routes requests into the micro-batcher."""

    def __init__(
        self,
        engine: NearDupEngine,
        config: ServiceConfig | None = None,
        *,
        stats: ServiceStats | None = None,
    ):
        super().__init__()
        self.engine = engine
        self.config = config or ServiceConfig()
        # Prefork workers inject a shared-memory-backed stats block so
        # the supervisor's cluster view sees every worker's counters.
        self.stats = stats or ServiceStats()
        #: Optional cluster aggregation hook (set by the prefork
        #: worker); when present, ``/stats`` adds a ``cluster`` block.
        self.cluster: Callable[[], dict[str, Any]] | None = None
        self.searcher = engine.cached_searcher(
            cache_bytes=self.config.cache_bytes,
            result_cache=self.config.result_cache,
        )
        self.batcher = MicroBatcher(
            self.searcher,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            stats=self.stats,
        )
        self.warmed_lists = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self, *, sock: socket.socket | None = None) -> None:
        """Warm the cache, start the batcher, and bind the socket.

        ``sock`` lets a prefork supervisor pass one already-bound
        listening socket shared by every forked worker (a shared accept
        loop); with ``config.reuse_port`` each worker instead binds its
        own ``SO_REUSEPORT`` socket and the kernel spreads accepts.
        """
        if self.config.warmup_lists > 0:
            self.warmed_lists = self.engine.warmup(
                self.searcher, max_lists=self.config.warmup_lists
            )
        self.stats.record_cache(self.searcher.index.stats())
        await self.batcher.start()
        await self._start_listener(sock=sock)
        logger.info(
            "serving %d texts / %d postings on %s:%d (%d lists warm)",
            self.engine.num_texts,
            self.engine.index.num_postings,
            self.config.host,
            self.port,
            self.warmed_lists,
        )

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish everything admitted."""
        await self._close_listener()
        await self.batcher.close(drain=True)
        if getattr(self.engine, "backend", "static") == "live":
            # Final WAL fsync + compactor join so nothing acknowledged
            # is left riding on the page cache.
            await asyncio.get_running_loop().run_in_executor(
                None, self.engine.close
            )

    # -- routing --------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        try:
            if path == "/health" and method == "GET":
                return 200, self._health_payload()
            if path == "/stats" and method == "GET":
                return 200, self._stats_payload()
            if path == "/search" and method == "POST":
                if self._draining:
                    raise ServiceClosedError("service is draining")
                return 200, await self._search(self._decode(body))
            if path == "/batch" and method == "POST":
                if self._draining:
                    raise ServiceClosedError("service is draining")
                return 200, await self._batch(self._decode(body))
            if path == "/ingest" and method == "POST":
                if self._draining:
                    raise ServiceClosedError("service is draining")
                return 200, await self._ingest(self._decode(body))
            if path in ("/health", "/stats", "/search", "/batch", "/ingest"):
                raise ProtocolError(f"{method} not allowed on {path}", status=405)
            raise ProtocolError(f"unknown path {path!r}", status=404)
        except (asyncio.TimeoutError, TimeoutError):
            self.stats.record(timeouts=1)
            return 504, {
                "ok": False,
                "error": "deadline exceeded before execution",
                "code": 504,
            }
        except Exception as exc:  # noqa: BLE001 - mapped to a JSON error
            status, payload = error_body(exc)
            if status >= 500 and not isinstance(exc, ServiceClosedError):
                self.stats.record(errors=1)
                logger.exception("request failed")
            return status, payload

    # -- endpoints ------------------------------------------------------
    def _query_tokens(self, body: dict[str, Any]):
        if "text" in body:
            if not isinstance(body["text"], str) or not body["text"]:
                raise ProtocolError("'text' must be a non-empty string")
            if self.engine.tokenizer is None:
                raise ProtocolError(
                    "this engine has no tokenizer; send token ids in 'query'"
                )
            return self.engine.tokenizer.encode(body["text"])
        return parse_tokens(body.get("query"))

    async def _search(self, body: dict[str, Any]) -> dict[str, Any]:
        tokens = self._query_tokens(body)
        theta = parse_theta(body, self.config.theta)
        verify = parse_flag(body, "verify")
        timeout = parse_timeout(body, self.config.timeout_ms)
        loop = asyncio.get_running_loop()
        begin = loop.time()
        result, batched_with, queue_wait = await self.batcher.submit(
            tokens, theta, verify=verify, timeout=timeout
        )
        total = loop.time() - begin
        self.stats.record(completed=1, latency=(total,), queue_wait=(queue_wait,))
        self.stats.record_cache(self.searcher.index.stats())
        return {
            "ok": True,
            "result": result_to_wire(result),
            "server": {
                "batched_with": batched_with,
                "queue_ms": 1e3 * queue_wait,
                "total_ms": 1e3 * total,
                "stats": stats_to_wire(result.stats),
            },
        }

    async def _batch(self, body: dict[str, Any]) -> dict[str, Any]:
        raw = body.get("queries")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("'queries' must be a non-empty list")
        queries = [
            parse_tokens(entry, field=f"queries[{position}]")
            for position, entry in enumerate(raw)
        ]
        theta = parse_theta(body, self.config.theta)
        verify = parse_flag(body, "verify")
        timeout = parse_timeout(body, self.config.timeout_ms)
        loop = asyncio.get_running_loop()
        begin = loop.time()
        batch = await self.batcher.submit_batch(
            queries, theta, verify=verify, timeout=timeout
        )
        total = loop.time() - begin
        self.stats.record(
            completed=len(batch.results), latency=(total,) * len(batch.results)
        )
        self.stats.record_cache(self.searcher.index.stats())
        return {
            "ok": True,
            "results": [result_to_wire(result) for result in batch.results],
            "server": {
                "batched_with": len(queries),
                "unique_queries": batch.stats.unique_queries,
                "total_ms": 1e3 * total,
                "stats": [stats_to_wire(result.stats) for result in batch.results],
            },
        }

    async def _ingest(self, body: dict[str, Any]) -> dict[str, Any]:
        """Durable streaming append (live engines only).

        Not idempotent: replaying the same request assigns fresh text
        ids, so clients must not auto-retry it on ambiguous transport
        failures (see :meth:`repro.service.client.ServiceClient.ingest`).
        """
        if getattr(self.engine, "backend", "static") != "live":
            raise ProtocolError(
                "this engine is static; /ingest requires serving a live "
                "index root (repro-cli serve <live-root>)"
            )
        raw = body.get("texts")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("'texts' must be a non-empty list")
        texts = []
        for position, entry in enumerate(raw):
            if isinstance(entry, str):
                if self.engine.tokenizer is None:
                    raise ProtocolError(
                        "this engine has no tokenizer; send token ids in "
                        f"'texts[{position}]'"
                    )
                texts.append(self.engine.tokenizer.encode(entry))
            else:
                texts.append(parse_tokens(entry, field=f"texts[{position}]"))
        loop = asyncio.get_running_loop()
        begin = loop.time()
        # The live index serialises appends internally; run on the
        # default executor so the event loop keeps serving queries
        # while the WAL fsyncs.
        ids = await loop.run_in_executor(None, self.engine.append_texts, texts)
        total = loop.time() - begin
        live = self.engine.live_index
        return {
            "ok": True,
            "ids": ids,
            "accepted": sum(1 for text_id in ids if text_id is not None),
            "deduped": sum(1 for text_id in ids if text_id is None),
            "next_text_id": live.num_texts,
            "generation": live.manifest.generation,
            "server": {"total_ms": 1e3 * total},
        }

    def _health_payload(self) -> dict[str, Any]:
        return {
            "ok": True,
            "status": "draining" if self._draining else "serving",
            "pid": os.getpid(),
            "texts": self.engine.num_texts,
            "postings": self.engine.index.num_postings,
            "k": self.engine.index.family.k,
            "t": self.engine.index.t,
            "backend": getattr(self.engine, "backend", "static"),
        }

    def _stats_payload(self) -> dict[str, Any]:
        payload = {
            "ok": True,
            "service": self.stats.snapshot(),
            "cache": self.searcher.index.stats().to_dict(),
            "queue_depth": self.batcher.depth,
            "warmed_lists": self.warmed_lists,
            "engine": self._health_payload(),
            "config": {
                "procs": self.config.procs,
                "max_batch": self.config.max_batch,
                "max_queue": self.config.max_queue,
                "timeout_ms": self.config.timeout_ms,
                "cache_bytes": self.config.cache_bytes,
                "result_cache": self.config.result_cache,
            },
        }
        result_cache = getattr(self.searcher, "result_cache", None)
        if result_cache is not None:
            payload["result_cache"] = result_cache.stats().to_dict()
        if getattr(self.engine, "backend", "static") == "live":
            payload["live"] = self.engine.live_index.status()
        if self.cluster is not None:
            payload["cluster"] = self.cluster()
        return payload


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
class ServiceRunner:
    """Run a service on a background thread.

    Tests and benchmarks need a live server inside one process: the
    runner owns a thread with its own event loop, starts the service on
    it, exposes ``host``/``port``, and tears everything down through
    the same graceful-drain path the CLI uses.  The default service is
    a :class:`SearchService` over ``engine``; pass ``service=`` to run
    any other :class:`HttpServiceBase` (e.g. the shard router) — it
    must expose async ``start()``/``shutdown()``.
    """

    def __init__(
        self,
        engine: NearDupEngine | None = None,
        config: ServiceConfig | None = None,
        *,
        service: HttpServiceBase | None = None,
    ):
        if service is None:
            assert engine is not None, "pass an engine or a service"
            service = SearchService(engine, config)
        self.service = service
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.service.config.host

    @property
    def port(self) -> int:
        assert self.service.port is not None, "runner is not started"
        return self.service.port

    def start(self, timeout: float = 10.0) -> "ServiceRunner":
        self._thread = threading.Thread(
            target=self._main, name="repro-service-runner", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._error is not None:
            raise self._error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)

    def call(self, fn, timeout: float = 10.0):
        """Run ``fn()`` on the service's event-loop thread and wait."""
        assert self._loop is not None
        done: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            try:
                done.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 - forwarded
                done.set_exception(exc)

        self._loop.call_soon_threadsafe(run)
        return done.result(timeout)

    def submit(self, coro) -> concurrent.futures.Future:
        """Schedule a coroutine on the service loop (returns its future)."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start()
        except Exception as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        await self.service.shutdown()

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def _serve_until_cancelled(service: SearchService, banner: bool) -> None:
    await service.start()
    if banner:
        print(
            f"repro service: {service.engine.num_texts} texts / "
            f"{service.engine.index.num_postings} postings on "
            f"{service.config.host}:{service.port} "
            f"({service.warmed_lists} lists warm); Ctrl-C drains and exits"
        )
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.shutdown()


def load_served_engine(
    directory: str, corpus_dir: str | None = None
) -> NearDupEngine:
    """Open what ``serve`` was pointed at.

    Accepts a full saved-engine directory (:meth:`NearDupEngine.save`),
    a live-index root (``MANIFEST.json``; served with streaming
    ``/ingest`` enabled), or a bare index directory from
    ``repro-cli build`` paired with its corpus via ``corpus_dir``.
    """
    from pathlib import Path

    from repro.corpus.store import DiskCorpus
    from repro.exceptions import InvalidParameterError
    from repro.index.lsm import manifest_exists
    from repro.index.storage import DiskInvertedIndex

    path = Path(directory)
    if (path / "engine.meta.json").exists():
        return NearDupEngine.load(path)
    if manifest_exists(path):
        return NearDupEngine.live(path)
    if corpus_dir is None:
        raise InvalidParameterError(
            f"{directory} is a bare index directory; pass its corpus via --corpus"
        )
    return NearDupEngine(DiskCorpus(corpus_dir), DiskInvertedIndex(path))


def serve(
    index_dir: str,
    *,
    corpus_dir: str | None = None,
    config: ServiceConfig | None = None,
    banner: bool = True,
) -> int:
    """Blocking entry point of ``repro-cli serve``.

    Loads the engine, runs the service until interrupted, then drains
    in-flight requests before returning.  With ``config.procs > 1`` the
    engine is loaded once (mmap) and served by a
    :class:`~repro.service.prefork.PreforkServer` fleet of forked
    workers sharing that mapping.
    """
    engine = load_served_engine(index_dir, corpus_dir)
    if config is not None and config.procs > 1:
        if getattr(engine, "backend", "static") == "live":
            from repro.exceptions import InvalidParameterError

            raise InvalidParameterError(
                "a live index has a single writer (its WAL); serve it with "
                "procs=1"
            )
        from repro.service.prefork import PreforkServer

        return PreforkServer(engine, config).run_forever(banner=banner)
    service = SearchService(engine, config)
    try:
        asyncio.run(_serve_until_cancelled(service, banner))
    except KeyboardInterrupt:
        pass
    return 0
