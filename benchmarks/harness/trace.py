"""Spans recorded from the harness's own files, around calls into each layer.

Nothing under ``src/`` is edited or monkey-patched: :class:`TimedReader`,
:class:`TimedFamily` and :class:`TimedLive` are plain delegating proxies
that the harness hands to the program in place of the real objects, and
every other span is opened by the workload code around a public call.

A span is ``(id, name, start, end, parent, request_id, attrs)``.  Spans of
one request share ``request_id`` (inherited from the enclosing span);
``attrs`` carries counts taken at the same boundary (bytes read, seconds
the reader accounted to its codec call).  A layer's *self time* is its
span minus the part of that interval covered by child spans, so the self
times under one root sum to the root's duration by construction.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request_id", "attrs")

    def __init__(self, span_id, name, parent, request_id):
        self.id = span_id
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.request_id = request_id
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """In-memory span store; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request_id=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = Span(
            next(self._ids), name, None if parent is None else parent.id, request_id
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of child intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span.id] = span.seconds - covered
    return out


def tree_self_sums(spans: list[Span], selfs: dict[int, float]) -> dict[int, float]:
    """Per root span id: the summed self time of the root and its descendants."""
    by_id = {span.id: span for span in spans}
    sums: dict[int, float] = {}
    for span in spans:
        root = span
        while root.parent is not None and root.parent in by_id:
            root = by_id[root.parent]
        sums[root.id] = sums.get(root.id, 0.0) + selfs[span.id]
    return sums


class TimedFamily:
    """``HashFamily`` proxy: a span around ``sketch``; the rest delegates."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def sketch(self, tokens):
        with self._tracer.span("core.hashing.sketch"):
            return self._inner.sketch(tokens)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _io_totals(reader) -> tuple[float, int, int]:
    """(seconds, bytes_read, decoded_bytes) the storage readers accounted.

    A union reader (live snapshot) keeps wall time of the whole merged
    call in its own ``io_stats``; what the codec cost sits in the
    per-run readers listed in its public ``sources``.
    """
    sources = getattr(reader, "sources", None) or [reader]
    seconds = 0.0
    nbytes = decoded = 0
    for source in sources:
        io = source.io_stats
        seconds += io.seconds
        nbytes += io.bytes_read
        decoded += io.decoded_bytes
    return seconds, nbytes, decoded


class TimedReader:
    """``InvertedIndexReader`` proxy with a span around each read call.

    Explicit methods for the five read calls the searcher, planner and
    cache issue; everything else (``t``, ``io_stats``, ``num_postings``,
    ``list_keys`` ...) resolves on the wrapped reader.  Each span's
    ``attrs`` holds the ``IOStats`` deltas of that call: on a packed
    payload the reader accounts exactly its ``decode_blocks`` call (mmap
    read and bit-unpack are one call there), which is what
    ``index.codec.decode_s`` sums.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.family = TimedFamily(inner.family, tracer)

    def _timed(self, name, call, *args):
        seconds0, bytes0, decoded0 = _io_totals(self._inner)
        with self._tracer.span(name) as span:
            out = call(*args)
        seconds1, bytes1, decoded1 = _io_totals(self._inner)
        span.attrs = {
            "codec_s": seconds1 - seconds0,
            "io_bytes": bytes1 - bytes0,
            "decoded_bytes": decoded1 - decoded0,
        }
        return out

    def list_length(self, func, minhash):
        return self._timed(
            "index.storage.lengths", self._inner.list_length, func, minhash
        )

    def sketch_list_lengths(self, sketch):
        return self._timed(
            "index.storage.lengths", self._inner.sketch_list_lengths, sketch
        )

    def load_list(self, func, minhash):
        return self._timed(
            "index.storage.load_list", self._inner.load_list, func, minhash
        )

    def load_text_windows(self, func, minhash, text_id):
        return self._timed(
            "index.storage.point_read",
            self._inner.load_text_windows,
            func,
            minhash,
            text_id,
        )

    def load_texts_windows(self, func, minhash, text_ids):
        return self._timed(
            "index.storage.point_read",
            self._inner.load_texts_windows,
            func,
            minhash,
            text_ids,
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedLive:
    """``LiveIndex`` proxy whose snapshots come back wrapped in a
    :class:`TimedReader`; ``LiveSearcher`` only calls ``generation`` and
    ``snapshot()`` on it."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._wrapped = None

    def snapshot(self):
        reader = self._inner.snapshot()
        if self._wrapped is None or self._wrapped._inner is not reader:
            self._wrapped = TimedReader(reader, self._tracer)
        return self._wrapped

    def __getattr__(self, name):
        return getattr(self._inner, name)
