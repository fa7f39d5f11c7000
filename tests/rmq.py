"""Range-minimum query (RMQ) data structures.

Algorithm 2 of the paper repeatedly asks for the position of the
minimum token hash inside a sub-sequence.  ALIGN used a segment tree
(``O(log n)`` per query); the paper observes that constant-time RMQ
structures bring compact-window generation down to ``O(n)`` overall.

The library finds window centers with a sliding minimum and answers
no RMQ; these structures drive the Algorithm 2 oracles of
``window_oracle.py``.  Three interchangeable structures are provided:

* :class:`SparseTableRMQ` — ``O(n log n)`` preprocessing, ``O(1)``
  query.  The default: at reproduction scale its preprocessing is a few
  vectorized numpy passes.
* :class:`SegmentTreeRMQ` — ``O(n)`` preprocessing, ``O(log n)`` query.
  ALIGN's choice; kept for the backend-agreement test.
* :class:`BlockRMQ` — ``O(n)`` preprocessing *and space*, ``O(block)``
  query.  A practical stand-in for the linear-space constant-time
  structure of Fischer & Heun cited by the paper: it decomposes the
  array into blocks, keeps a sparse table over block minima, and scans
  inside at most two blocks per query.

All structures answer ``argmin(values[lo..hi])`` over *inclusive* index
ranges and break ties by returning the **leftmost** minimum, which is
the tie-breaking rule of the compact-window generators.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.exceptions import InvalidParameterError


class RangeMinimumQuery(Protocol):
    """Protocol shared by all RMQ implementations."""

    def query(self, lo: int, hi: int) -> int:
        """Index of the leftmost minimum of ``values[lo..hi]`` (inclusive)."""
        ...


def _validate(values: np.ndarray) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1:
        raise InvalidParameterError("RMQ input must be one-dimensional")
    if array.size == 0:
        raise InvalidParameterError("RMQ input must be non-empty")
    return array


class SparseTableRMQ:
    """Sparse-table RMQ: ``O(n log n)`` build, ``O(1)`` leftmost-argmin query."""

    def __init__(self, values: np.ndarray) -> None:
        array = _validate(values)
        n = array.size
        self._values = array
        self._n = n
        levels = max(1, n.bit_length())
        # table[j] holds, for each i, the argmin of values[i : i + 2**j].
        table = np.empty((levels, n), dtype=np.int64)
        table[0] = np.arange(n)
        for j in range(1, levels):
            half = 1 << (j - 1)
            span = 1 << j
            width = n - span + 1
            if width <= 0:
                table[j] = table[j - 1]
                continue
            left = table[j - 1, :width]
            right = table[j - 1, half : half + width]
            # '<=' keeps the leftmost index on ties.
            take_left = array[left] <= array[right]
            table[j, :width] = np.where(take_left, left, right)
            table[j, width:] = table[j - 1, width:]
        self._table = table

    def query(self, lo: int, hi: int) -> int:
        if not 0 <= lo <= hi < self._n:
            raise InvalidParameterError(f"invalid RMQ range [{lo}, {hi}] for size {self._n}")
        span = hi - lo + 1
        j = span.bit_length() - 1
        left = int(self._table[j, lo])
        right = int(self._table[j, hi - (1 << j) + 1])
        if self._values[left] <= self._values[right]:
            return left
        # Ties between the two overlapping halves favour the leftmost
        # index, and `left` always starts no later than `right`.
        return right if self._values[right] < self._values[left] else left


class SegmentTreeRMQ:
    """Iterative segment tree RMQ: ``O(n)`` build, ``O(log n)`` query.

    This is the structure ALIGN used; the ablation benchmark contrasts
    it with the constant-time alternatives.
    """

    def __init__(self, values: np.ndarray) -> None:
        array = _validate(values)
        n = array.size
        self._values = array
        self._n = n
        size = 1
        while size < n:
            size *= 2
        self._size = size
        tree = np.full(2 * size, -1, dtype=np.int64)
        tree[size : size + n] = np.arange(n)
        for node in range(size - 1, 0, -1):
            tree[node] = self._better(tree[2 * node], tree[2 * node + 1])
        self._tree = tree

    def _better(self, i: int, j: int) -> int:
        """Leftmost-argmin combinator treating -1 as 'no candidate'."""
        if i < 0:
            return int(j)
        if j < 0:
            return int(i)
        vi, vj = self._values[i], self._values[j]
        if vi < vj or (vi == vj and i < j):
            return int(i)
        return int(j)

    def query(self, lo: int, hi: int) -> int:
        if not 0 <= lo <= hi < self._n:
            raise InvalidParameterError(f"invalid RMQ range [{lo}, {hi}] for size {self._n}")
        best = -1
        left = lo + self._size
        right = hi + self._size + 1
        while left < right:
            if left & 1:
                best = self._better(best, self._tree[left])
                left += 1
            if right & 1:
                right -= 1
                best = self._better(best, self._tree[right])
            left //= 2
            right //= 2
        return int(best)


class BlockRMQ:
    """Block-decomposition RMQ: linear space, small-constant queries.

    Splits the array into blocks of ``block_size`` (default
    ``max(16, log2(n))``), answers cross-block queries from a sparse
    table over per-block minima and scans the at most two boundary
    blocks directly.  With numpy ``argmin`` for the scans the constant
    is tiny, making this the practical counterpart of the linear-space
    structure referenced by the paper.
    """

    def __init__(self, values: np.ndarray, block_size: int | None = None) -> None:
        array = _validate(values)
        n = array.size
        self._values = array
        self._n = n
        if block_size is None:
            block_size = max(16, n.bit_length())
        if block_size <= 0:
            raise InvalidParameterError(f"block_size must be positive, got {block_size}")
        self._block = block_size
        num_blocks = (n + block_size - 1) // block_size
        block_argmins = np.empty(num_blocks, dtype=np.int64)
        for b in range(num_blocks):
            lo = b * block_size
            hi = min(n, lo + block_size)
            block_argmins[b] = lo + int(np.argmin(array[lo:hi]))
        self._block_argmins = block_argmins
        self._summary = SparseTableRMQ(array[block_argmins]) if num_blocks > 1 else None

    def query(self, lo: int, hi: int) -> int:
        if not 0 <= lo <= hi < self._n:
            raise InvalidParameterError(f"invalid RMQ range [{lo}, {hi}] for size {self._n}")
        array = self._values
        block = self._block
        b_lo, b_hi = lo // block, hi // block
        if b_lo == b_hi:
            return lo + int(np.argmin(array[lo : hi + 1]))
        candidates = [lo + int(np.argmin(array[lo : (b_lo + 1) * block]))]
        if b_lo + 1 <= b_hi - 1 and self._summary is not None:
            mid = self._summary.query(b_lo + 1, b_hi - 1)
            candidates.append(int(self._block_argmins[mid]))
        candidates.append(b_hi * block + int(np.argmin(array[b_hi * block : hi + 1])))
        best = candidates[0]
        for cand in candidates[1:]:
            if array[cand] < array[best] or (array[cand] == array[best] and cand < best):
                best = cand
        return best


#: Registry used by benchmarks and the CLI to select an RMQ backend.
RMQ_BACKENDS = {
    "sparse": SparseTableRMQ,
    "segment": SegmentTreeRMQ,
    "block": BlockRMQ,
}


def make_rmq(values: np.ndarray, backend: str = "sparse") -> RangeMinimumQuery:
    """Construct an RMQ structure over ``values`` by backend name."""
    try:
        factory = RMQ_BACKENDS[backend]
    except KeyError:
        raise InvalidParameterError(
            f"unknown RMQ backend {backend!r}; choose from {sorted(RMQ_BACKENDS)}"
        ) from None
    return factory(values)
