"""Read an index's lists the way tests compare them."""

from __future__ import annotations

import numpy as np


def func_lists(index, func: int) -> dict[int, np.ndarray]:
    """``{minhash: postings}`` of every list of one hash function, in key
    order, read with one vector ``load_list`` call."""
    keys = index.list_keys(func)
    lists = index.load_list(np.full(keys.size, func, dtype=np.int64), keys)
    return dict(zip(keys.tolist(), lists))
