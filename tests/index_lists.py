"""Read an index's lists the way tests compare them."""

from __future__ import annotations

import numpy as np

from repro.index.inverted import POSTING_DTYPE


def split_lists(postings: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """A ragged batch ``(postings, sizes)`` — what a reader's vector
    ``load_list`` / ``load_texts_windows`` returns — as one array per
    pair, each a slice of ``postings``."""
    return np.split(postings, np.cumsum(sizes)[:-1]) if len(sizes) else []


def join_lists(lists) -> tuple[np.ndarray, np.ndarray]:
    """One array per pair as the ragged batch a vector read returns:
    the inverse of :func:`split_lists`, for test readers."""
    lists = list(lists)
    postings = (
        np.concatenate(lists) if lists else np.empty(0, dtype=POSTING_DTYPE)
    )
    return postings, np.array([part.size for part in lists], dtype=np.int64)


def func_lists(index, func: int) -> dict[int, np.ndarray]:
    """``{minhash: postings}`` of every list of one hash function, in key
    order, read with one vector ``load_list`` call."""
    keys = index.list_keys(func)
    funcs = np.full(keys.size, func, dtype=np.int64)
    return dict(zip(keys.tolist(), split_lists(*index.load_list(funcs, keys))))
