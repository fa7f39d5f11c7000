"""Compact-window generation (paper Section 3.3, Algorithm 2).

A *compact window* ``(l, c, r)`` over a text ``T`` (with respect to one
hash function ``f``) represents every sequence ``T[i..j]`` with
``l <= i <= c <= j <= r``; all of them share the min-hash ``f(T[c])``
and the window is maximal.  For a length threshold ``t``, a window is
*valid* when its width ``r - l + 1 >= t``; Theorem 1 shows a text with
``n`` distinct tokens yields ``2(n+1)/(t+1) - 1`` valid windows in
expectation and that every sequence of length ``>= t`` lies in exactly
one valid window.

Algorithm 2 with leftmost tie-breaking builds the Cartesian tree of the
hash array: the window of ``c`` runs from one past the previous
position with hash ``<= f(T[c])`` to one before the next position with
hash ``< f(T[c])``.  Two generators compute it:

* :func:`generate_compact_windows_stack` — one hash row, two
  monotone-stack sweeps.  The reference the tests compare against.
* :func:`generate_chunk_windows` — the production kernel.  It takes the
  ``(k, N)`` hash matrix of a chunk of texts and finds the centers
  first: a cell centers a valid window iff it is the minimum of some
  length-``t`` window, so a sliding minimum marks them, and the run of
  window starts each center owns gives its bounds.  Only the centers
  whose nearest smaller key lies ``t`` or more cells away chase
  pointers, and only over the other centers.
  :func:`generate_compact_windows_kwide` is its one-text wrapper.

Indices are 0-based throughout the library; the paper's ``T[l..r]``
with 1-based inclusive bounds maps to our ``(l-1, r-1)`` inclusive.
The RMQ-driven forms of Algorithm 2 live with the tests as oracles.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError

#: Structured dtype for bulk window storage: one record per window.
WINDOW_DTYPE = np.dtype(
    [("left", np.uint32), ("center", np.uint32), ("right", np.uint32)]
)


class CompactWindow(NamedTuple):
    """A compact window ``(left, center, right)`` with inclusive bounds."""

    left: int
    center: int
    right: int

    @property
    def width(self) -> int:
        """Number of tokens spanned by the window."""
        return self.right - self.left + 1

    def contains(self, i: int, j: int) -> bool:
        """Whether the sequence ``T[i..j]`` belongs to this window."""
        return self.left <= i <= self.center <= j <= self.right


def _check_threshold(t: int) -> None:
    if t < 1:
        raise InvalidParameterError(f"length threshold t must be >= 1, got {t}")


def generate_compact_windows_stack(token_hashes: np.ndarray, t: int) -> np.ndarray:
    """``O(n)`` monotone-stack window generation for one hash row.

    The divide-and-conquer recursion of Algorithm 2 with leftmost
    tie-breaking builds the Cartesian tree of the hash array: the
    window of position ``c`` spans ``(l, r)`` where ``l`` is one past
    the closest previous position with hash ``<= hash[c]`` and ``r`` is
    one before the closest next position with hash ``< hash[c]``
    (strict on the right so that the leftmost of equal minima becomes
    the ancestor).  Two sweeps with a monotone stack compute all spans
    in ``O(n)``; pruning to ``width >= t`` yields exactly the valid
    windows Algorithm 2 emits.

    Returns a structured array with fields ``left``, ``center``,
    ``right`` (see :data:`WINDOW_DTYPE`), sorted by ``center``.
    """
    _check_threshold(t)
    hashes = np.asarray(token_hashes)
    n = hashes.size
    if n < t:
        return np.empty(0, dtype=WINDOW_DTYPE)

    # Plain Python ints are ~5x faster than numpy scalars in this loop.
    values = hashes.tolist()
    left_list = [0] * n
    right_list = [0] * n

    stack: list[int] = []
    for i in range(n):
        h = values[i]
        while stack and values[stack[-1]] > h:
            stack.pop()
        left_list[i] = stack[-1] + 1 if stack else 0
        stack.append(i)

    stack.clear()
    for i in range(n - 1, -1, -1):
        h = values[i]
        while stack and values[stack[-1]] >= h:
            stack.pop()
        right_list[i] = stack[-1] - 1 if stack else n - 1
        stack.append(i)

    left = np.asarray(left_list, dtype=np.int64)
    right = np.asarray(right_list, dtype=np.int64)
    widths = right - left + 1
    keep = widths >= t
    out = np.empty(int(keep.sum()), dtype=WINDOW_DTYPE)
    out["left"] = left[keep]
    out["center"] = np.flatnonzero(keep)
    out["right"] = right[keep]
    return out


#: Bits of a cell key below its hash: the cell's column in the chunk.
_POS_BITS = 31
#: Key of a sentinel cell, below every real key (real keys are >= 0).
_SENTINEL = -1


def _sliding_min(keys: np.ndarray, t: int) -> np.ndarray:
    """``out[s] = keys[s : s + t].min()`` for every length-``t`` window.

    Doubling: after the pass with shift ``w`` every entry is the minimum
    of ``2w`` consecutive keys, so ``log2(t)`` contiguous passes plus one
    overlapping pass reach width ``t``.
    """
    out, width = keys, 1
    while 2 * width <= t:
        out = np.minimum(out[:-width], out[width:])
        width *= 2
    if width < t:
        out = np.minimum(out[: width - t], out[t - width :])
    return out


def _previous_smaller(keys: np.ndarray) -> np.ndarray:
    """Index of the nearest earlier entry with a smaller key, for every
    non-sentinel entry of ``keys``.

    ``keys[0]`` must be a sentinel, which stops every chase.  A cell
    whose left neighbour is larger chases pointers: it jumps to the
    candidate's own (possibly still converging) pointer, skipping the
    candidate's whole subtree, so the active set shrinks fast.
    """
    ptr = np.arange(-1, keys.size - 1, dtype=np.int64)
    active = np.flatnonzero((keys[:-1] > keys[1:]) & (keys[1:] != _SENTINEL)) + 1
    while active.size:
        ptr[active] = ptr[ptr[active]]
        active = active[keys[ptr[active]] > keys[active]]
    return ptr


def chunk_layout(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Lay ``parts`` out along their last axis as ``S p0 S p1 ... S``.

    This is the chunk layout :func:`generate_chunk_windows` takes; the
    sentinel slots ``S`` hold zeros.
    """
    gap = np.zeros(parts[0].shape[:-1] + (1,), dtype=parts[0].dtype)
    pieces = [gap]
    for part in parts:
        pieces += [part, gap]
    return np.concatenate(pieces, axis=-1)


def generate_chunk_windows(
    hash_matrix: np.ndarray, lengths: Sequence[int], t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid windows of all texts of a chunk, for all ``k`` functions.

    ``hash_matrix`` is the ``(k, N)`` matrix of 32-bit hashes of the
    chunk's texts in :func:`chunk_layout`, ``S text0 S text1 ... S``:
    ``lengths[i]`` is the length of text ``i`` and
    ``N = sum(lengths) + len(lengths) + 1``.  The values in the
    sentinel columns ``S`` are ignored.

    Returns ``(bounds, minhashes, rows)``.  ``rows`` is a ``(W, 4)``
    ``uint32`` array of ``(text, left, center, right)``, where ``text``
    is the index into ``lengths`` and the bounds are positions within
    that text; the windows of function ``f`` are
    ``rows[bounds[f] : bounds[f + 1]]``, sorted by ``(text, center)``,
    and ``minhashes`` holds the hash of each window's center.  For every
    text and function they equal
    :func:`generate_compact_windows_stack` of that row.
    """
    _check_threshold(t)
    k, width = hash_matrix.shape
    if width >= 1 << _POS_BITS:
        raise InvalidParameterError(f"chunk of {width} columns is too long")
    if k * width < t:  # not even one length-t window
        rows = np.empty((0, 4), dtype=np.uint32)
        return np.zeros(k + 1, dtype=np.int64), np.empty(0, dtype=np.uint32), rows
    sentinels = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64) + 1, out=sentinels[1:])
    # Key = hash << 31 | column: unique within a row, and for two cells
    # of equal hash the left one is smaller, which is the stack rule
    # (previous hash <= own, next hash < own) as one strict comparison.
    keys = np.left_shift(hash_matrix, _POS_BITS, dtype=np.int64)
    keys |= np.arange(width, dtype=np.int64)
    keys = keys.ravel()
    row_starts = np.arange(k, dtype=np.int64)[:, None] * width
    sentinel_cells = (row_starts + sentinels).ravel()
    keys[sentinel_cells] = _SENTINEL

    # A cell centers a window of width >= t iff it is the minimum of a
    # length-t window.  Every window that crosses a text or row boundary
    # holds a sentinel, so the real minima are exactly the centers.  As
    # the window slides the minimum's position never moves left, so the
    # window starts [a, b] that share one center are one run.
    mins = _sliding_min(keys, t)
    change = np.empty(mins.size, dtype=bool)
    change[0] = True
    np.not_equal(mins[1:], mins[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = mins.size - 1
    center_keys = mins[starts]
    real = center_keys != _SENTINEL
    starts, ends, center_keys = starts[real], ends[real], center_keys[real]
    row_base = starts // width * width
    center = row_base + (center_keys & ((1 << _POS_BITS) - 1))

    # The run is [max(L, c - t + 1), min(c, R - t + 1)] for the window
    # [L, R] of center c, so it gives L and R directly unless the
    # nearest smaller key lies t or more cells away.  Such a key is
    # itself a center or a sentinel (it is the minimum of the length-t
    # window that starts or ends at it), so those bounds come from a
    # pointer chase over the centers and sentinels alone.
    left = starts
    right = ends + (t - 1)
    open_left = starts == center - (t - 1)
    open_right = ends == center
    if open_left.any() or open_right.any():
        nodes = np.sort(np.concatenate([center, sentinel_cells]))
        node_keys = keys[nodes]
        at = np.searchsorted(nodes, center)
        prev = _previous_smaller(node_keys)
        left[open_left] = nodes[prev[at[open_left]]] + 1
        last = nodes.size - 1
        nxt = _previous_smaller(node_keys[::-1])
        right[open_right] = nodes[last - nxt[last - at[open_right]]] - 1

    text = np.searchsorted(sentinels, center - row_base) - 1
    base = row_base + sentinels[text] + 1
    rows = np.empty((center.size, 4), dtype=np.uint32)
    rows[:, 0] = text
    rows[:, 1] = left - base
    rows[:, 2] = center - base
    rows[:, 3] = right - base
    bounds = np.searchsorted(row_base, np.arange(k + 1, dtype=np.int64) * width)
    return bounds, (center_keys >> _POS_BITS).astype(np.uint32), rows


def generate_compact_windows_kwide(
    hash_matrix: np.ndarray, t: int
) -> list[np.ndarray]:
    """Window generation for all ``k`` hash rows of one text.

    ``hash_matrix`` is the ``(k, n)`` matrix whose row ``f`` holds
    ``f_f(T[p])`` for every position ``p`` (one
    ``vocab_hashes[:, token_idx]`` gather, or
    :meth:`~repro.core.hashing.HashFamily.hash_tokens_all`).  Returns a
    list of ``k`` structured arrays; entry ``f`` is element-wise
    identical to ``generate_compact_windows_stack(hash_matrix[f], t)``.
    Runs :func:`generate_chunk_windows` on a one-text chunk.
    """
    matrix = np.asarray(hash_matrix)
    if matrix.ndim != 2:
        raise InvalidParameterError(
            f"hash matrix must be 2-D (k, n), got shape {matrix.shape}"
        )
    k, n = matrix.shape
    bounds, _, rows = generate_chunk_windows(chunk_layout([matrix]), [n], t)
    windows = np.ascontiguousarray(rows[:, 1:]).view(WINDOW_DTYPE).ravel()
    return [windows[bounds[f] : bounds[f + 1]] for f in range(k)]


def windows_to_array(windows: list[CompactWindow]) -> np.ndarray:
    """Convert a list of :class:`CompactWindow` to a structured array."""
    out = np.empty(len(windows), dtype=WINDOW_DTYPE)
    for idx, win in enumerate(windows):
        out[idx] = (win.left, win.center, win.right)
    return out


def array_to_windows(array: np.ndarray) -> list[CompactWindow]:
    """Convert a structured window array back to :class:`CompactWindow` objects."""
    return [
        CompactWindow(int(rec["left"]), int(rec["center"]), int(rec["right"]))
        for rec in array
    ]


def window_minhashes(
    windows: np.ndarray, token_hashes: np.ndarray
) -> np.ndarray:
    """Min-hash value of each window: the hash of its center token."""
    return np.asarray(token_hashes, dtype=np.uint32)[windows["center"].astype(np.int64)]


def enumerate_covered_sequences(
    window: CompactWindow, min_length: int = 1
) -> list[tuple[int, int]]:
    """All sequences ``(i, j)`` represented by ``window`` with length ``>= min_length``.

    Quadratic in the window width — intended for tests and examples.
    """
    spans = []
    for i in range(window.left, window.center + 1):
        for j in range(max(window.center, i + min_length - 1), window.right + 1):
            spans.append((i, j))
    return spans
