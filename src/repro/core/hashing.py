"""Universal hashing of token identifiers for min-hash sketching.

The paper (Section 3.2) estimates the distinct Jaccard similarity of two
sequences with ``k`` independent random universal hash functions: the
fraction of min-hash collisions in the ``k`` trials is an unbiased
estimator of the Jaccard similarity with variance ``O(1/k)``.

Each function first applies a *multiply-shift* keyed transform
(``a * x + b mod 2^64`` with ``a`` a random odd 64-bit integer) and then
the splitmix64 finalizer (xorshift-multiply avalanche).  The keyed
transform makes the ``k`` functions pairwise independent draws; the
finalizer destroys the arithmetic structure multiply-shift alone would
leak (min-hash needs approximately min-wise independent functions, and
plain multiply-shift is badly biased on the contiguous token-id ranges
real vocabularies produce).  Everything vectorizes exactly with
``numpy``'s wrapping ``uint64`` arithmetic.  Hash outputs are 32-bit,
matching the paper's assumption that a min-hash value fits in a 4-byte
integer.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.exceptions import InvalidParameterError

#: Number of output bits of every hash function in the family.
HASH_BITS = 32

#: Exclusive upper bound of hash values (``2 ** HASH_BITS``).
HASH_SPACE = 1 << HASH_BITS

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _finalize(mixed: np.ndarray) -> np.ndarray:
    """splitmix64 avalanche: uniform, structure-free 64 -> 64 mixing."""
    with np.errstate(over="ignore"):
        mixed = (mixed ^ (mixed >> np.uint64(30))) * _MIX1
        mixed = (mixed ^ (mixed >> np.uint64(27))) * _MIX2
        mixed ^= mixed >> np.uint64(31)
    return mixed


class HashFamily:
    """A family of ``k`` independent universal hash functions over tokens.

    Parameters
    ----------
    k:
        Number of hash functions (the ``k`` of the paper's ``k``-mins
        sketch).
    seed:
        Seed for the pseudo-random draw of the family parameters.  Two
        families built with the same ``(k, seed)`` are identical, which
        is what makes an index file reusable across processes.

    Notes
    -----
    The family hashes *token identifiers* (unsigned integers), not
    strings.  Hashing a whole vocabulary once with
    :meth:`hash_vocabulary` and indexing into the resulting table is the
    fast path used during compact-window generation.
    """

    def __init__(self, k: int, seed: int = 0) -> None:
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        # Odd multipliers make multiply-shift universal.
        self._a = rng.integers(1, 1 << 63, size=self.k, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        self._b = rng.integers(0, 1 << 63, size=self.k, dtype=np.uint64)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def hash_tokens(self, tokens: np.ndarray, func: int) -> np.ndarray:
        """Hash an array of token ids with hash function ``func``.

        Returns a ``uint32`` array of the same shape as ``tokens``.
        """
        self._check_func(func)
        x = np.asarray(tokens, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = x * self._a[func] + self._b[func]
        return (_finalize(mixed) >> np.uint64(64 - HASH_BITS)).astype(np.uint32)

    def hash_tokens_all(self, tokens: np.ndarray) -> np.ndarray:
        """Hash an array of token ids under all ``k`` functions at once.

        Returns a ``(k, len(tokens))`` ``uint32`` matrix; row ``f``
        equals ``hash_tokens(tokens, f)``.  This is the direct-hash
        counterpart of indexing a :meth:`hash_vocabulary` table with
        ``table[:, tokens]``, used when the token-id space is too large
        to precompute.
        """
        x = np.asarray(tokens, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = x[None, :] * self._a[:, None] + self._b[:, None]
        return (_finalize(mixed) >> np.uint64(64 - HASH_BITS)).astype(np.uint32)

    def hash_token(self, token: int, func: int) -> int:
        """Hash a single token id with hash function ``func``."""
        self._check_func(func)
        mixed = np.uint64(
            (int(self._a[func]) * int(token) + int(self._b[func])) % (1 << 64)
        )
        return int(_finalize(np.array([mixed]))[0]) >> (64 - HASH_BITS)

    def hash_vocabulary(self, vocab_size: int) -> np.ndarray:
        """Precompute the hash of every token id in ``[0, vocab_size)``.

        Returns a ``(k, vocab_size)`` ``uint32`` table; row ``i`` is the
        image of the vocabulary under hash function ``i``.
        """
        if vocab_size <= 0:
            raise InvalidParameterError(f"vocab_size must be positive, got {vocab_size}")
        ids = np.arange(vocab_size, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = ids[None, :] * self._a[:, None] + self._b[:, None]
        return (_finalize(mixed) >> np.uint64(64 - HASH_BITS)).astype(np.uint32)

    def minhash(self, tokens: np.ndarray, func: int) -> int:
        """Min-hash of a token sequence under hash function ``func``.

        The min-hash of a sequence is the minimum hash value over its
        *distinct* tokens; since ``min`` is idempotent the deduplication
        is implicit.
        """
        tokens = np.asarray(tokens)
        if tokens.size == 0:
            raise InvalidParameterError("cannot take the min-hash of an empty sequence")
        return int(self.hash_tokens(tokens, func).min())

    def sketch(self, tokens: np.ndarray) -> np.ndarray:
        """The ``k``-mins sketch of a sequence: all ``k`` min-hashes.

        Returns a ``uint32`` array of length ``k``: the one-row case of
        :meth:`sketch_many`.
        """
        return self.sketch_many(np.asarray(tokens).reshape(1, -1))[0]

    def sketch_many(self, batch) -> np.ndarray:
        """The ``k``-mins sketches of a batch of sequences, one row each.

        ``batch`` is a ``(B, w)`` token matrix or a sequence of ``B``
        token sequences of any lengths; returns a ``(B, k)`` ``uint32``
        matrix whose row ``i`` is the sketch of sequence ``i``.  The
        batch's tokens are deduplicated once (one ``np.unique``) and
        only the distinct ones are hashed, into a ``(distinct, k)``
        table.  A ragged batch is grouped by width; each group (a
        matrix is one) takes one gather of that table and one ``min``
        over its width.
        """
        if isinstance(batch, np.ndarray) and batch.ndim == 2:
            size = batch.shape[0]
            groups = [(slice(None), batch)] if size else []
        else:
            rows = [np.asarray(tokens).reshape(-1) for tokens in batch]
            size = len(rows)
            by_width: dict[int, list[int]] = {}
            for i, row in enumerate(rows):
                by_width.setdefault(row.size, []).append(i)
            groups = [
                (members, np.stack([rows[i] for i in members]))
                for members in by_width.values()
            ]
        out = np.empty((size, self.k), dtype=np.uint32)
        if not groups:
            return out
        if any(matrix.shape[1] == 0 for _, matrix in groups):
            raise InvalidParameterError("cannot sketch an empty sequence")
        distinct, inverse = np.unique(
            np.concatenate([matrix.reshape(-1) for _, matrix in groups]),
            return_inverse=True,
        )
        table = self._hash_distinct(distinct)
        offset = 0
        for members, matrix in groups:
            cells = inverse[offset : offset + matrix.size].reshape(matrix.shape)
            offset += matrix.size
            out[members] = np.take(table, cells, axis=0).min(axis=1)
        return out

    def _hash_distinct(self, tokens: np.ndarray) -> np.ndarray:
        """The ``(len(tokens), k)`` ``uint32`` hashes of distinct tokens."""
        x = tokens.astype(np.uint64)
        with np.errstate(over="ignore"):
            mixed = x[:, None] * self._a[None, :] + self._b[None, :]
        return (_finalize(mixed) >> np.uint64(64 - HASH_BITS)).astype(np.uint32)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize the family parameters to a JSON-friendly dict."""
        return {
            "k": self.k,
            "seed": self.seed,
            "a": [int(v) for v in self._a],
            "b": [int(v) for v in self._b],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HashFamily":
        """Rebuild a family from :meth:`to_dict` output.

        The stored ``a``/``b`` arrays take precedence over re-deriving
        them from the seed, so files written by other versions of the
        generator stay readable.
        """
        family = cls.__new__(cls)
        family.k = int(payload["k"])
        family.seed = int(payload.get("seed", 0))
        family._a = np.asarray(payload["a"], dtype=np.uint64)
        family._b = np.asarray(payload["b"], dtype=np.uint64)
        if family._a.shape != (family.k,) or family._b.shape != (family.k,):
            raise InvalidParameterError("hash family parameter arrays do not match k")
        return family

    def save(self, path: str | Path) -> None:
        """Write the family parameters to ``path`` as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "HashFamily":
        """Read a family previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    def _check_func(self, func: int) -> None:
        if not 0 <= func < self.k:
            raise InvalidParameterError(f"hash function index {func} out of range [0, {self.k})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return (
            self.k == other.k
            and np.array_equal(self._a, other._a)
            and np.array_equal(self._b, other._b)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFamily(k={self.k}, seed={self.seed})"
