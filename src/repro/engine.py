"""High-level facade: corpus + tokenizer + index + searcher in one object.

Everything in :mod:`repro` composes from small parts; this module is
the one-stop entry point a downstream user adopts:

>>> from repro.engine import NearDupEngine
>>> engine = NearDupEngine.from_texts(["some documents", ...], k=32, t=25)
>>> for hit in engine.search("a passage to look up", theta=0.8):
...     print(hit.text_id, hit.snippet)

The engine owns a BPE tokenizer (trained at build time), the tokenized
corpus, the inverted index, and a searcher; :meth:`save` / :meth:`load`
persist all of it as one directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher, SearchResult
from repro.corpus.corpus import Corpus, InMemoryCorpus
from repro.corpus.store import DiskCorpus, write_corpus
from repro.exceptions import InvalidParameterError
from repro.index.builder import DEFAULT_BATCH_TEXTS, build_memory_index
from repro.index.codec import check_codec
from repro.index.lsm import LiveIndex, LiveIndexConfig, LiveSearcher, manifest_exists
from repro.index.storage import DiskInvertedIndex, write_index
from repro.tokenizer.bpe import BPETokenizer


_META_FILE = "engine.meta.json"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Hit:
    """One merged near-duplicate region, decoded when possible."""

    text_id: int
    start: int
    end: int
    snippet: str | None

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class NearDupEngine:
    """Build once, search with strings or token arrays.

    Construct via :meth:`from_texts` (raw strings; trains a tokenizer)
    or :meth:`from_corpus` (pre-tokenized).  The underlying parts stay
    reachable (``engine.index``, ``engine.searcher``, ``engine.corpus``,
    ``engine.tokenizer``) for anything the facade does not cover.
    """

    def __init__(
        self,
        corpus: Corpus | None,
        index,
        *,
        tokenizer: BPETokenizer | None = None,
        codec: str = "raw",
        backend: str = "static",
    ) -> None:
        if backend not in ("static", "live"):
            raise InvalidParameterError(
                f"backend must be 'static' or 'live', got {backend!r}"
            )
        if corpus is None and backend != "live":
            raise InvalidParameterError("a static engine requires a corpus")
        self.corpus = corpus
        self.index = index
        self.tokenizer = tokenizer
        #: ``static`` (immutable index) or ``live`` (streaming LSM index).
        self.backend = backend
        #: Payload codec :meth:`save` writes (``raw`` or ``packed``).
        self.codec = check_codec(codec)
        if backend == "live":
            self.searcher = LiveSearcher(index, corpus=corpus)
        else:
            self.searcher = NearDuplicateSearcher(index, corpus=corpus)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_texts(
        cls,
        texts: Iterable[str],
        *,
        k: int = 32,
        t: int = 25,
        vocab_size: int = 4096,
        seed: int = 0,
        batch_texts: int = DEFAULT_BATCH_TEXTS,
        codec: str = "raw",
    ) -> "NearDupEngine":
        """Train a BPE tokenizer on ``texts``, tokenize, and index.

        ``codec="packed"`` makes :meth:`save` write the compressed
        format v2 index payload.
        """
        materialized = list(texts)
        if not materialized:
            raise InvalidParameterError("at least one text is required")
        tokenizer = BPETokenizer.train(materialized, vocab_size=vocab_size)
        corpus = InMemoryCorpus([tokenizer.encode(text) for text in materialized])
        family = HashFamily(k=k, seed=seed)
        index = build_memory_index(
            corpus,
            family,
            t,
            vocab_size=tokenizer.vocab_size,
            batch_texts=batch_texts,
        )
        return cls(corpus, index, tokenizer=tokenizer, codec=codec)

    @classmethod
    def from_corpus(
        cls,
        corpus: Corpus,
        *,
        k: int = 32,
        t: int = 25,
        vocab_size: int | None = None,
        seed: int = 0,
        tokenizer: BPETokenizer | None = None,
        batch_texts: int = DEFAULT_BATCH_TEXTS,
        codec: str = "raw",
    ) -> "NearDupEngine":
        """Index a pre-tokenized corpus (token-id queries only, unless a
        tokenizer is supplied).  ``codec="packed"`` makes :meth:`save`
        write the compressed format v2 index payload."""
        family = HashFamily(k=k, seed=seed)
        index = build_memory_index(
            corpus, family, t, vocab_size=vocab_size, batch_texts=batch_texts
        )
        return cls(corpus, index, tokenizer=tokenizer, codec=codec)

    @classmethod
    def live(
        cls,
        root: str | Path,
        *,
        k: int = 32,
        t: int = 25,
        vocab_size: int = 4096,
        seed: int = 0,
        tokenizer: BPETokenizer | None = None,
        config: LiveIndexConfig | None = None,
    ) -> "NearDupEngine":
        """Open (or create) a streaming engine over an LSM live index.

        A live engine accepts :meth:`append_texts` while answering
        queries; appends are WAL-durable and the visible index advances
        through sealed runs and background compaction (see
        :mod:`repro.index.lsm`).  When ``root`` already holds a live
        index, ``k``/``t``/``vocab_size``/``seed`` are validated against
        it rather than applied.
        """
        root = Path(root)
        if manifest_exists(root):
            live_index = LiveIndex(root, config=config)
        else:
            live_index = LiveIndex(
                root,
                family=HashFamily(k=k, seed=seed),
                t=t,
                vocab_size=vocab_size,
                config=config,
            )
        codec = live_index.manifest.codec
        return cls(
            None, live_index, tokenizer=tokenizer, codec=codec, backend="live"
        )

    # ------------------------------------------------------------------
    # Streaming ingest (live backend)
    # ------------------------------------------------------------------
    @property
    def live_index(self) -> LiveIndex:
        """The underlying :class:`LiveIndex` (live backend only)."""
        if self.backend != "live":
            raise InvalidParameterError("engine was not opened with backend='live'")
        return self.index

    def append_texts(
        self, texts: Sequence[str | Sequence[int] | np.ndarray]
    ) -> list[int]:
        """Ingest a batch into a live engine; returns the assigned text
        ids, one per text in input order.  Durable under the live
        index's ``ack_policy`` when this returns."""
        live_index = self.live_index
        return live_index.append_texts([self._as_tokens(text) for text in texts])

    def append_text(self, text: str | Sequence[int] | np.ndarray) -> int:
        """Ingest one text into a live engine; returns its id."""
        return self.append_texts([text])[0]

    def close(self) -> None:
        """Release live-backend resources (no-op for static engines)."""
        if self.backend == "live":
            self.index.close()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _as_tokens(self, query: str | Sequence[int] | np.ndarray) -> np.ndarray:
        if isinstance(query, str):
            if self.tokenizer is None:
                raise InvalidParameterError(
                    "string queries need a tokenizer; build with from_texts "
                    "or pass tokenizer= explicitly"
                )
            return self.tokenizer.encode(query)
        return np.asarray(query, dtype=np.uint32)

    def search(
        self,
        query: str | Sequence[int] | np.ndarray,
        theta: float = 0.8,
        *,
        verify: bool = False,
        snippet_tokens: int = 40,
    ) -> list[Hit]:
        """Find near-duplicate regions; returns merged, decoded hits."""
        result = self.searcher.search(self._as_tokens(query), theta, verify=verify)
        return self._to_hits(result, snippet_tokens)

    def search_raw(
        self,
        query: str | Sequence[int] | np.ndarray,
        theta: float = 0.8,
        *,
        verify: bool = False,
    ) -> SearchResult:
        """The full :class:`SearchResult` for callers that need rectangles."""
        return self.searcher.search(self._as_tokens(query), theta, verify=verify)

    def search_batch(
        self,
        queries: Sequence[str | Sequence[int] | np.ndarray],
        theta: float = 0.8,
        *,
        batch_size: int | None = None,
        verify: bool = False,
        snippet_tokens: int = 40,
    ) -> list[list[Hit]]:
        """Answer many queries in one planned, I/O-shared pass.

        Returns one hit list per query, in input order — identical to
        calling :meth:`search` per query.  The batch is planned (sketch
        dedup, each distinct list read once) and run on the calling thread.
        """
        batch = self.search_batch_raw(
            queries, theta, batch_size=batch_size, verify=verify
        )
        return [
            self._to_hits(result, snippet_tokens) for result in batch.results
        ]

    def search_batch_raw(
        self,
        queries: Sequence[str | Sequence[int] | np.ndarray],
        theta: float = 0.8,
        *,
        batch_size: int | None = None,
        verify: bool = False,
    ):
        """Batch counterpart of :meth:`search_raw`: the full
        :class:`~repro.query.results.BatchResult`, including the merged
        :class:`~repro.query.results.BatchStats`."""
        from repro.query.executor import BatchQueryExecutor

        tokenized = [self._as_tokens(query) for query in queries]
        with BatchQueryExecutor(self.searcher, batch_size=batch_size) as executor:
            return executor.execute(tokenized, theta, verify=verify)

    # ------------------------------------------------------------------
    # Serving hooks
    # ------------------------------------------------------------------
    def cached_searcher(
        self, *, cache_bytes: int = 32 * 1024 * 1024
    ) -> NearDuplicateSearcher:
        """A searcher backed by the read cache.

        The online service (and any other long-lived caller answering
        many queries) searches through one of these instead of
        ``engine.searcher``.  Every searcher reads through a
        :class:`~repro.index.cache.CachedIndexReader` whole-list LRU of
        ``cache_bytes``.  A live searcher is also wrapped in a
        :class:`~repro.query.resultcache.CachingSearcher`, which
        memoizes the last ``DEFAULT_RESULT_ENTRIES`` (1024) whole
        ``SearchResult``s and drops them whenever the live generation
        moves.  A static searcher has no result tier: a batch plan's
        sketch dedup plus its one read per distinct list already covers
        repeats inside a batch.

        Each call builds fresh caches.
        """
        from repro.index.cache import CachedIndexReader

        if self.backend == "live":
            from repro.query.resultcache import CachingSearcher

            # The live searcher rebuilds its cache per generation, so
            # mutations never serve stale lists.
            live = self.live_index
            return CachingSearcher(
                LiveSearcher(live, cache_bytes=cache_bytes, corpus=self.corpus),
                generation_fn=lambda: live.generation,
            )
        reader = CachedIndexReader(self.index, capacity_bytes=cache_bytes)
        return NearDuplicateSearcher(reader, corpus=self.corpus)

    def warmup(
        self,
        searcher: NearDuplicateSearcher | None = None,
        *,
        max_lists: int = 64,
        max_bytes: int | None = None,
    ) -> int:
        """Preload the longest (Zipf-head) inverted lists into a cache.

        Ranks every list of every hash function by length and loads the
        head through ``searcher``'s cached reader until ``max_lists``
        lists or ``max_bytes`` (default: half the cache capacity) have
        been admitted, so a freshly started service answers its first
        queries against a warm cache.  Returns the number of lists
        loaded.  ``searcher`` must come from :meth:`cached_searcher`.
        """
        from repro.index.cache import CachedIndexReader
        from repro.index.inverted import POSTING_BYTES

        if searcher is None:
            searcher = self.cached_searcher()
        reader = searcher.index
        if not isinstance(reader, CachedIndexReader):
            raise InvalidParameterError(
                "warmup needs a cached searcher; use engine.cached_searcher()"
            )
        if max_lists <= 0:
            return 0
        budget = (
            int(max_bytes)
            if max_bytes is not None
            else reader.stats().capacity_bytes // 2
        )
        ranked: list[tuple[int, int, int]] = []
        for func in range(self.index.family.k):
            lengths = np.asarray(self.index.list_lengths(func))
            keys = np.asarray(self.index.list_keys(func))
            if lengths.size == 0:
                continue
            head = np.argsort(-lengths, kind="stable")[:max_lists]
            ranked.extend(
                (int(lengths[slot]), func, int(keys[slot])) for slot in head
            )
        ranked.sort(key=lambda item: (-item[0], item[1], item[2]))
        chosen: list[tuple[int, int]] = []
        used = 0
        for length, func, minhash in ranked:
            if len(chosen) >= max_lists:
                break
            nbytes = length * POSTING_BYTES
            if used + nbytes > budget:
                continue
            chosen.append((func, minhash))
            used += nbytes
        if chosen:
            funcs, minhashes = zip(*chosen)
            reader.load_list(np.array(funcs), np.array(minhashes))
        return len(chosen)

    def contains_near_duplicate(
        self, query: str | Sequence[int] | np.ndarray, theta: float = 0.8
    ) -> bool:
        """Whether ``query`` has at least one near-duplicate at ``theta``."""
        return bool(self.searcher.search(self._as_tokens(query), theta).matches)

    def _to_hits(self, result: SearchResult, snippet_tokens: int) -> list[Hit]:
        hits = []
        for span in result.merged_spans():
            snippet = None
            if self.tokenizer is not None and self.corpus is not None:
                tokens = np.asarray(self.corpus[span.text_id])[
                    span.start : span.start + min(span.length, snippet_tokens)
                ]
                snippet = self.tokenizer.decode(tokens)
            hits.append(
                Hit(
                    text_id=span.text_id,
                    start=span.start,
                    end=span.end,
                    snippet=snippet,
                )
            )
        return hits

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Persist corpus, index, and tokenizer as one directory."""
        if self.backend == "live":
            raise InvalidParameterError(
                "a live engine persists itself through its root directory; "
                "save() applies only to static engines"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_corpus(self.corpus, directory / "corpus")
        write_index(self.index, directory / "index", codec=self.codec)
        meta = {"format_version": _FORMAT_VERSION, "has_tokenizer": False}
        if self.tokenizer is not None:
            self.tokenizer.save(directory / "tokenizer.json")
            meta["has_tokenizer"] = True
        (directory / _META_FILE).write_text(json.dumps(meta))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "NearDupEngine":
        """Re-open an engine saved by :meth:`save` (memory-mapped)."""
        directory = Path(directory)
        meta_path = directory / _META_FILE
        if not meta_path.exists():
            raise InvalidParameterError(f"{directory} is not a saved engine")
        meta = json.loads(meta_path.read_text())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise InvalidParameterError(
                f"unsupported engine format {meta.get('format_version')!r}"
            )
        corpus = DiskCorpus(directory / "corpus")
        index = DiskInvertedIndex(directory / "index")
        tokenizer = None
        if meta.get("has_tokenizer"):
            tokenizer = BPETokenizer.load(directory / "tokenizer.json")
        return cls(corpus, index, tokenizer=tokenizer, codec=index.codec)

    # ------------------------------------------------------------------
    @property
    def num_texts(self) -> int:
        if self.corpus is None:
            return int(self.index.num_texts)
        return len(self.corpus)

    @property
    def total_tokens(self) -> int:
        if self.corpus is None:
            return int(self.index.total_tokens)
        return self.corpus.total_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NearDupEngine(texts={self.num_texts}, tokens={self.total_tokens}, "
            f"k={self.index.family.k}, t={self.index.t})"
        )
