"""In-memory write buffer of freshly appended texts.

Per-batch posting chunks accumulated cheaply on every append, lazily
consolidated into one :class:`~repro.index.inverted.MemoryInvertedIndex`
the first time a reader asks.  The live index
(:mod:`repro.index.lsm.live`) uses it as its memtable, sealing it to an
immutable on-disk run once it grows past a threshold.

Batch validation happens *before* any mutation, so a rejected batch
(token outside the vocabulary) leaves the memtable untouched — the
atomicity the WAL-then-memtable ingest path needs.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashing import HashFamily
from repro.exceptions import InvalidParameterError
from repro.index.builder import generate_corpus_postings
from repro.index.inverted import MemoryInvertedIndex, POSTING_DTYPE


class Memtable:
    """Posting buffer over texts with externally-assigned ids.

    ``add_texts`` takes ``(text_id, tokens)`` pairs — id assignment
    stays with the caller (the live index's WAL-fenced counter) so the
    buffer itself has no ordering
    policy to get wrong.  Ids must be added in ascending order; the
    built index's lists are then sorted by text id, which every reader
    relies on.
    """

    def __init__(self, family: HashFamily, t: int, vocab_size: int) -> None:
        self.family = family
        self.t = int(t)
        self.vocab_size = int(vocab_size)
        self._vocab_hashes = family.hash_vocabulary(self.vocab_size)
        self._chunks: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self._built: MemoryInvertedIndex | None = None
        self._postings = 0
        self._num_texts = 0
        self._tokens = 0

    # -- writing --------------------------------------------------------
    def check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Validate one text's tokens against the vocabulary."""
        tokens = np.asarray(tokens, dtype=np.uint32)
        if tokens.size and int(tokens.max()) >= self.vocab_size:
            raise InvalidParameterError(
                f"token id {int(tokens.max())} outside vocab {self.vocab_size}"
            )
        return tokens

    def add_texts(self, batch: list[tuple[int, np.ndarray]]) -> int:
        """Buffer one batch of ``(text_id, tokens)``; returns postings added.

        The whole batch is validated before anything is buffered.
        """
        batch = [(text_id, self.check_tokens(tokens)) for text_id, tokens in batch]
        per_func = generate_corpus_postings(
            batch, self.family, self.t, self._vocab_hashes
        )
        added = sum(int(postings.size) for _, postings in per_func)
        self._chunks.append(per_func)
        self._postings += added
        self._num_texts += len(batch)
        self._tokens += sum(int(tokens.size) for _, tokens in batch)
        self._built = None  # rebuilt lazily on next read
        return added

    def clear(self) -> None:
        """Drop every buffered posting (after a seal took ownership)."""
        self._chunks.clear()
        self._built = None
        self._postings = 0
        self._num_texts = 0
        self._tokens = 0

    # -- reading --------------------------------------------------------
    def index(self) -> MemoryInvertedIndex | None:
        """The buffered postings as one index; ``None`` when empty.

        Built lazily and cached until the next mutation, so bursts of
        appends between reads pay one consolidation.
        """
        if not self._chunks:
            return None
        if self._built is None:
            per_func: list[tuple[list[np.ndarray], list[np.ndarray]]] = [
                ([], []) for _ in range(self.family.k)
            ]
            for chunk in self._chunks:
                for func, (minhashes, postings) in enumerate(chunk):
                    if postings.size:
                        per_func[func][0].append(minhashes)
                        per_func[func][1].append(postings)
            merged = []
            for minhash_chunks, posting_chunks in per_func:
                if minhash_chunks:
                    merged.append(
                        (
                            np.concatenate(minhash_chunks),
                            np.concatenate(posting_chunks),
                        )
                    )
                else:
                    merged.append(
                        (
                            np.empty(0, dtype=np.uint32),
                            np.empty(0, dtype=POSTING_DTYPE),
                        )
                    )
            self._built = MemoryInvertedIndex.from_postings(
                self.family, self.t, merged
            )
        return self._built

    # -- introspection --------------------------------------------------
    @property
    def postings(self) -> int:
        return self._postings

    @property
    def num_texts(self) -> int:
        """Texts buffered since the last :meth:`clear`."""
        return self._num_texts

    @property
    def total_tokens(self) -> int:
        return self._tokens

    def __len__(self) -> int:
        return self._num_texts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Memtable(texts={self._num_texts}, postings={self._postings}, "
            f"k={self.family.k}, t={self.t})"
        )
