"""JSON wire format of the search service.

Every body is a single JSON object.  The served result of a query is
:func:`result_to_wire` applied to the exact
:class:`~repro.core.search.SearchResult` the engine would return
locally — the service layer adds timing/batching metadata in a sibling
``server`` object, never inside ``result``, so clients (and the tests)
can compare served results byte-for-byte against a direct search.

Requests
--------
``POST /search``::

    {"query": [17, 4, ...],      # token ids (uint32 range), or
     "text": "raw string",       # requires the engine to own a tokenizer
     "theta": 0.8,               # optional, default from the server
     "verify": false,            # optional exact-Jaccard post-filter
     "timeout_ms": 2000}         # optional per-request deadline

``POST /batch``::

    {"queries": [[...], ...],    # list of token-id sequences
     "theta": 0.8, "verify": false, "timeout_ms": 10000}

Responses carry ``{"ok": true, ...}`` on success; errors are
``{"ok": false, "error": "...", "code": <http status>}`` with the same
status on the HTTP line (400 malformed, 404 unknown path, 429 shed,
503 draining, 504 deadline exceeded, 500 internal).
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any

import numpy as np

from repro.core.search import QueryStats, SearchResult
from repro.exceptions import ReproError


class ServiceError(ReproError):
    """Base class of service-layer failures; carries an HTTP status."""

    status = 500


class ProtocolError(ServiceError):
    """The request body or path is malformed (HTTP 400/404)."""

    status = 400

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class RequestShedError(ServiceError):
    """Admission control rejected the request: the queue is full (429)."""

    status = 429


class RequestTimeoutError(ServiceError):
    """The per-request deadline elapsed before execution (504)."""

    status = 504


class ServiceClosedError(ServiceError):
    """The service is draining and refuses new work (503)."""

    status = 503


class RemoteError(ServiceError):
    """Client-side wrapper of any error response from the server."""

    def __init__(self, message: str, status: int = 500) -> None:
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# HTTP/1.1 framing
# ----------------------------------------------------------------------
#: Header lines one HTTP/1.1 head may carry.
MAX_HEADERS = 64


async def read_http_message(
    reader: asyncio.StreamReader, max_body: int | None = None
) -> tuple[dict[str, str], bytes]:
    """Headers (names lower-cased) and ``Content-Length`` body after an
    HTTP/1.1 first line, which each end parses itself.

    A header line without ``:`` or past the stream's line limit, more
    than :data:`MAX_HEADERS` headers, or a ``Content-Length`` that is
    not a non-negative integer up to ``max_body`` raise ``ValueError``
    (the server answers 400, the client reports 502); a stream that
    ends inside the body raises ``asyncio.IncompleteReadError``.
    """
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise ValueError(f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ValueError(f"more than {MAX_HEADERS} headers")
    length_text = headers.get("content-length", "0")
    length = int(length_text) if length_text.isdecimal() else -1
    if length < 0:
        raise ValueError(f"bad Content-Length {length_text!r}")
    if max_body is not None and length > max_body:
        raise ValueError(f"body of {length} bytes exceeds the {max_body}-byte limit")
    return headers, (await reader.readexactly(length) if length else b"")


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
def result_to_wire(result: SearchResult) -> dict[str, Any]:
    """Serialize one search result (deterministic, stats excluded).

    Per-query stats depend on cache temperature and batching context,
    so they live in the response's ``server`` block; everything here is
    a pure function of (index, query, theta) and therefore byte-equal
    between a served query and a direct ``engine.search_raw``.
    """
    return {
        "k": result.k,
        "theta": result.theta,
        "beta": result.beta,
        "t": result.t,
        "num_texts": result.num_texts,
        "matches": [
            {
                "text_id": match.text_id,
                "rectangles": [
                    {
                        "i_lo": rect.i_lo,
                        "i_hi": rect.i_hi,
                        "j_lo": rect.j_lo,
                        "j_hi": rect.j_hi,
                        "count": rect.count,
                    }
                    for rect in match.rectangles
                ],
            }
            for match in result.matches
        ],
        "spans": [
            [span.text_id, span.start, span.end]
            for span in result.merged_spans()
        ],
    }


def stats_to_wire(stats: QueryStats) -> dict[str, Any]:
    """Serialize per-query stats for the response's ``server`` block.

    Field-driven (like :meth:`QueryStats.merge`), so a counter added to
    :class:`QueryStats` later crosses the wire automatically.
    """
    return dataclasses.asdict(stats)


def stats_from_wire(raw: Any) -> QueryStats:
    """Rebuild :class:`QueryStats` from a ``server.stats`` wire dict.

    Unknown keys are ignored and missing ones default to zero, so a
    router can merge stats from shard servers one format revision away.
    """
    if not isinstance(raw, dict):
        return QueryStats()
    known = {spec.name for spec in dataclasses.fields(QueryStats)}
    return QueryStats(**{key: raw[key] for key in raw.keys() & known})


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------
def parse_tokens(value: Any, *, field: str = "query") -> np.ndarray:
    """Validate one token-id sequence from a decoded JSON body."""
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"'{field}' must be a non-empty list of token ids")
    try:
        tokens = np.asarray(value, dtype=np.uint32)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"'{field}' is not a token-id sequence: {exc}")
    if tokens.ndim != 1:
        raise ProtocolError(f"'{field}' must be a flat list of token ids")
    return tokens


def parse_theta(body: dict[str, Any], default: float) -> float:
    theta = body.get("theta", default)
    if not isinstance(theta, (int, float)) or not 0.0 < float(theta) <= 1.0:
        raise ProtocolError(f"'theta' must be in (0, 1], got {theta!r}")
    return float(theta)


def parse_timeout(body: dict[str, Any], default_ms: float) -> float:
    """Per-request deadline in seconds (``timeout_ms`` on the wire)."""
    timeout_ms = body.get("timeout_ms", default_ms)
    if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
        raise ProtocolError(f"'timeout_ms' must be positive, got {timeout_ms!r}")
    return float(timeout_ms) / 1e3


def parse_policy(value: Any) -> str:
    """Validate a replica-selection policy name (router config / CLI)."""
    from repro.service.replicas import POLICIES

    if not isinstance(value, str) or value not in POLICIES:
        raise ProtocolError(
            f"unknown routing policy {value!r}; choose from {list(POLICIES)}"
        )
    return value


def parse_hedge_after_ms(value: Any) -> float | None:
    """Validate a hedge delay: ``None`` off, ``0`` auto (p95), ``>0`` fixed."""
    if value is None:
        return None
    if not isinstance(value, (int, float)) or value < 0:
        raise ProtocolError(
            f"'hedge_after_ms' must be >= 0 (0 = auto from the shard's "
            f"observed p95), got {value!r}"
        )
    return float(value)


def parse_flag(body: dict[str, Any], name: str) -> bool:
    value = body.get(name, False)
    if not isinstance(value, bool):
        raise ProtocolError(f"'{name}' must be a boolean, got {value!r}")
    return value


def error_body(exc: Exception) -> tuple[int, dict[str, Any]]:
    """Map an exception to ``(http status, response body)``."""
    status = getattr(exc, "status", None)
    if not isinstance(status, int):
        status = 400 if isinstance(exc, ReproError) else 500
    return status, {"ok": False, "error": str(exc), "code": status}
