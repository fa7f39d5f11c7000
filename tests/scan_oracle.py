"""The scalar search: the oracle the batch scan is compared with.

One query at a time, one list per ``load_list`` and one text at a time,
as Algorithms 3–5 read in the paper; nothing in it is shared with the
vectorized scan in :mod:`repro.core.search` except the plan (the
long/short split) and the exact-Jaccard filter.
"""

from __future__ import annotations

import numpy as np

from repro.core.intervals import collision_count
from repro.core.search import (
    NearDuplicateSearcher,
    QueryStats,
    SearchResult,
    TextMatch,
)


class ReferenceSearcher:
    """The scalar search, standalone: the oracle of the batch scan.

    Plans with :meth:`~NearDuplicateSearcher.plan_query`, reads each
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
        self.planner = NearDuplicateSearcher(
            index, long_list_cutoff=long_list_cutoff, corpus=corpus
        )

    def search(self, query, theta, *, verify=False) -> SearchResult:
        entry = self.planner.plan_query(query, theta)
        long_funcs = sorted(entry.long_funcs)
        alpha_short = entry.beta - len(long_funcs)
        stats = QueryStats(
            lists_loaded=int(entry.short_funcs.size), long_lists=len(long_funcs)
        )
        lists = [
            self.index.load_list(func, int(entry.sketch[func]))
            for func in entry.short_funcs.tolist()
        ]
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
                            func, int(entry.sketch[func]), [text_id]
                        )
                        stats.point_reads += 1
                        if fetched.size:
                            extra.append(fetched)
                    rectangles = collision_count(np.concatenate(extra), entry.beta)
                rectangles = [
                    rect
                    for rect in rectangles
                    if rect.clip_min_length(self.t) is not None
                ]
                if rectangles and verify:
                    rectangles = self.planner._verify_rectangles(
                        query, theta, text_id, rectangles
                    )
                if rectangles:
                    matches.append(TextMatch(text_id, tuple(rectangles)))
        stats.texts_matched = len(matches)
        return SearchResult(
            matches=matches,
            stats=stats,
            k=self.planner.family.k,
            theta=theta,
            beta=entry.beta,
            t=self.t,
        )
