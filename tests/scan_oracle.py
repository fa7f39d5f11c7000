"""The scalar search: the oracle the batch scan is compared with.

One query at a time, one list per ``load_list`` and one text at a time,
as Algorithms 3–5 read in the paper; nothing in it is shared with the
vectorized scan in :mod:`repro.core.search`.  Its long/short split is
:func:`scalar_split`, the rule written out for one query, and its
exact-Jaccard filter is :func:`verify_rectangles`, one rectangle at a
time.
"""

from __future__ import annotations

import numpy as np

from repro.core.intervals import CollisionRectangle, collision_count
from repro.core.search import QueryStats, SearchResult, TextMatch
from repro.core.theory import collision_threshold
from repro.core.verify import distinct_jaccard


def scalar_split(lengths: np.ndarray, beta: int, long_list_cutoff) -> list[int]:
    """The long/short rule for one query's ``k`` list lengths: the
    functions of its long lists, ascending.

    A list is long when it is longer than the cutoff: ``long_list_cutoff``
    when set (``0`` means none is), else ``max(64, 8 × median)`` of the
    query's non-empty lengths.  At most ``beta - 1`` lists are long,
    the longest first, ties by function order.
    """
    if long_list_cutoff == 0:
        return []
    if long_list_cutoff is not None:
        cutoff = long_list_cutoff
    else:
        positive = lengths[lengths > 0]
        if positive.size == 0:
            return []
        cutoff = max(64, 8 * int(np.median(positive)))
    candidates = np.flatnonzero(lengths > cutoff)
    max_long = max(0, beta - 1)
    if candidates.size > max_long:
        order = np.argsort(-lengths[candidates], kind="stable")
        candidates = candidates[order[:max_long]]
    return sorted(candidates.tolist())


def verify_rectangles(query, theta, text, rectangles, t) -> list[CollisionRectangle]:
    """Each rectangle narrowed to the bounding box of its sequences of
    length ``>= t`` whose exact distinct Jaccard with ``query`` reaches
    ``theta``; a rectangle without one is dropped."""
    verified = []
    for rect in rectangles:
        passing = [
            (i, j)
            for (i, j) in rect.iter_spans(t)
            if distinct_jaccard(query, text[i : j + 1]) >= theta
        ]
        if passing:
            i_values = [i for i, _ in passing]
            j_values = [j for _, j in passing]
            verified.append(
                CollisionRectangle(
                    min(i_values), max(i_values), min(j_values), max(j_values), rect.count
                )
            )
    return verified


class ReferenceSearcher:
    """The scalar search, standalone: the oracle of the batch scan.

    Splits the query's lists with :func:`scalar_split`, reads each
    short list with its own ``load_list``, then goes one text at a time:
    Algorithm 4/5 over the text's short-list windows, then one zone-map
    point read per long list for every surviving candidate.  It prunes a
    text by its number of *windows*, a weaker bound than the scan's
    count of lists, so equal matches show the list prune drops nothing
    it may not; ``rows_kept`` counts the rows of the texts in at least
    ``beta - long`` lists, the scan's rule.  The oracle the vectorized
    scan must match on matches, ordering and every deterministic counter.
    """

    def __init__(self, index, *, long_list_cutoff=None, corpus=None) -> None:
        self.index = index
        self.t = index.t
        self.family = index.family
        self.long_list_cutoff = long_list_cutoff
        self.corpus = corpus

    def search(self, query, theta, *, verify=False) -> SearchResult:
        sketch = self.family.sketch(query)
        lengths = np.asarray(self.index.sketch_list_lengths(sketch[None])).reshape(-1)
        beta = collision_threshold(self.family.k, theta)
        long_funcs = scalar_split(lengths, beta, self.long_list_cutoff)
        short_funcs = [
            func
            for func in range(self.family.k)
            if lengths[func] > 0 and func not in long_funcs
        ]
        alpha_short = beta - len(long_funcs)
        stats = QueryStats(lists_loaded=len(short_funcs), long_lists=len(long_funcs))
        lists = [self.index.load_list(func, int(sketch[func])) for func in short_funcs]
        stats.rows_scanned = sum(int(postings.size) for postings in lists)
        matches: list[TextMatch] = []
        if stats.rows_scanned:
            merged = np.concatenate(lists)
            list_of = np.repeat(np.arange(len(lists)), [p.size for p in lists])
            order = np.argsort(merged["text"], kind="stable")
            merged, list_of = merged[order], list_of[order]
            text_ids = merged["text"]
            boundaries = np.flatnonzero(
                np.concatenate(([True], text_ids[1:] != text_ids[:-1]))
            )
            boundaries = np.append(boundaries, merged.size)
            for start, end in zip(boundaries[:-1], boundaries[1:]):
                group = merged[start:end]
                stats.groups_scanned += 1
                if len(set(list_of[start:end].tolist())) >= alpha_short:
                    stats.rows_kept += int(group.size)
                if group.size < alpha_short:
                    continue
                rectangles = collision_count(group, max(alpha_short, 1))
                if not rectangles:
                    continue
                stats.candidates += 1
                text_id = int(group["text"][0])
                if long_funcs:
                    extra = [group]
                    for func in long_funcs:
                        fetched = self.index.load_texts_windows(
                            func, int(sketch[func]), [text_id]
                        )
                        stats.point_reads += 1
                        if fetched.size:
                            extra.append(fetched)
                    rectangles = collision_count(np.concatenate(extra), beta)
                rectangles = [
                    rect
                    for rect in rectangles
                    if rect.clip_min_length(self.t) is not None
                ]
                if rectangles and verify:
                    rectangles = verify_rectangles(
                        query, theta, np.asarray(self.corpus[text_id]), rectangles, self.t
                    )
                if rectangles:
                    matches.append(TextMatch(text_id, tuple(rectangles)))
        stats.texts_matched = len(matches)
        return SearchResult(
            matches=matches,
            stats=stats,
            k=self.family.k,
            theta=theta,
            beta=beta,
            t=self.t,
        )
