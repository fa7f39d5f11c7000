"""RMQ-driven Algorithm 2: the scalar window-generation oracles.

The paper's Algorithm 2 finds a segment's minimum with a range-minimum
query, emits the segment as a window and recurses on both sides,
pruning segments shorter than ``t``.  The library generates windows
with a sliding minimum instead
(:func:`repro.core.compact_windows.generate_chunk_windows`); these two
literal forms stay here as the oracles the tests compare it with.
"""

from __future__ import annotations

import numpy as np

from repro.core.compact_windows import CompactWindow
from repro.exceptions import InvalidParameterError
from rmq import make_rmq


def _check_threshold(t: int) -> None:
    if t < 1:
        raise InvalidParameterError(f"length threshold t must be >= 1, got {t}")


def generate_compact_windows_recursive(
    token_hashes: np.ndarray, t: int
) -> list[CompactWindow]:
    """Literal Algorithm 2: recursive divide and conquer.

    Only suitable for short inputs (recursion depth is ``O(n)`` in the
    worst case).
    """
    _check_threshold(t)
    hashes = np.asarray(token_hashes)
    windows: list[CompactWindow] = []
    if hashes.size == 0:
        return windows
    rmq = make_rmq(hashes)

    def recurse(lo: int, hi: int) -> None:
        if hi - lo + 1 < t:
            return
        center = rmq.query(lo, hi)
        windows.append(CompactWindow(lo, center, hi))
        recurse(lo, center - 1)
        recurse(center + 1, hi)

    recurse(0, hashes.size - 1)
    return windows


def generate_compact_windows(
    token_hashes: np.ndarray, t: int, rmq_backend: str = "sparse"
) -> list[CompactWindow]:
    """Algorithm 2 with an explicit stack instead of recursion.

    Parameters
    ----------
    token_hashes:
        Hash value of each token position (``f(T[p])`` for every ``p``).
    t:
        Length threshold; windows narrower than ``t`` are pruned along
        with their entire recursion subtree.
    rmq_backend:
        Which RMQ structure to use (``"sparse"``, ``"segment"`` or
        ``"block"``); see ``tests/rmq.py``.
    """
    _check_threshold(t)
    hashes = np.asarray(token_hashes)
    windows: list[CompactWindow] = []
    if hashes.size < t:
        return windows
    rmq = make_rmq(hashes, rmq_backend)
    stack: list[tuple[int, int]] = [(0, hashes.size - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo + 1 < t:
            continue
        center = rmq.query(lo, hi)
        windows.append(CompactWindow(lo, center, hi))
        stack.append((lo, center - 1))
        stack.append((center + 1, hi))
    return windows
