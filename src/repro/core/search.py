"""Near-duplicate sequence search (paper Section 3.5, Algorithm 3).

Given a query sequence ``Q`` and a similarity threshold ``theta``, the
searcher:

1. computes the ``k``-mins sketch of ``Q``;
2. splits the ``k`` corresponding inverted lists into *short* and
   *long* ones (prefix filtering — long lists are the Zipf-head token
   lists that would dominate I/O);
3. loads the short lists and keeps only the texts that appear in
   ``>= beta - (k - p)`` short lists (``p`` = number of short lists): a
   sequence lies in at most one compact window per hash function, so a
   text in fewer lists cannot reach ``beta`` even if *every* long list
   contained it, and is pruned without touching the long lists.  The
   prune counts *runs*, not rows: a list holds each text's windows as
   one run, so counting the runs' text ids (:func:`_counted`) counts
   each text's lists, and only the surviving runs' rows are
   gathered.  The kept texts' windows are grouped by text and run
   through :func:`~repro.core.intervals.collision_count` with that
   reduced threshold;
4. for each surviving candidate text, point-reads its windows from the
   long lists through their zone maps and re-runs ``collision_count``
   with the full threshold ``beta = ceil(k * theta)``;
5. reports all sequences of length ``>= t`` contained in ``>= beta``
   colliding windows — Definition 2's output, sound and complete
   (Theorem 2).

Readers hand back a vector read as one ragged batch of
:data:`~repro.index.inverted.POSTING_DTYPE` records plus each list's
size; the scan takes one ``(n, 4)`` ``uint32`` row view per batch (the
same bytes, see :func:`~repro.index.inverted.posting_rows`) and its
list boundaries from the sizes.  numpy's structured-dtype machinery
makes every concatenate, sort and mask of records several times dearer
than the same operation on rows.

Both halves run a batch at a time.  :meth:`NearDuplicateSearcher.plan`
does steps 1–2 for a batch and returns one :class:`BatchPlan`: the
unique queries' ``(U, k)`` sketches, list lengths and long-list mask
(one :meth:`~repro.core.hashing.HashFamily.sketch_many` call, one
``sketch_list_lengths`` call and one vectorized
:meth:`~NearDuplicateSearcher._select_long_lists`), with the threshold
and ``verify`` it was built for.
:meth:`~NearDuplicateSearcher._search_batch` does steps 3–5 for every
query of a plan at once, a group being a ``(query, text)`` pair: one
prune over all their run counts, one gather of the surviving rows, one
kernel pass at each query's reduced threshold, one point read per query
with long lists and one kernel pass at ``beta`` over every refined
group.  It reads the batch's distinct short lists with one
``load_list``, each once however many queries share it;
:meth:`NearDuplicateSearcher.search` is the batch of one, on the same
path.

The scan answers in columns, one :class:`BatchAnswer`; its
:meth:`~BatchAnswer.results` is the one place that builds
:class:`SearchResult` objects, at the plan's threshold or a stricter one.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.hashing import HashFamily
from repro.core.intervals import (
    CollisionRectangle,
    FusedRectangles,
    fused_collision_count,
)
from repro.core.theory import collision_threshold
from repro.core.verify import Span, distinct_jaccard, merge_overlapping_spans
from repro.exceptions import InvalidParameterError, QueryError
from repro.index.inverted import InvertedIndexReader, posting_rows, range_indices

logger = logging.getLogger(__name__)

#: A cutoff no list length exceeds: the query has no long lists.
_NO_CUTOFF = np.iinfo(np.int64).max

#: Every attribute and method of the reader protocol; a searcher names
#: the ones a refused reader lacks.
_READER_MEMBERS = (
    *InvertedIndexReader.__annotations__,
    *(name for name in vars(InvertedIndexReader) if not name.startswith("_")),
)


@dataclass
class QueryStats:
    """Per-query accounting mirroring the paper's latency breakdown."""

    total_seconds: float = 0.0
    io_seconds: float = 0.0
    io_bytes: int = 0
    io_calls: int = 0
    lists_loaded: int = 0
    long_lists: int = 0
    groups_scanned: int = 0
    candidates: int = 0
    texts_matched: int = 0
    #: Long-list point-read *operations*: one per long list per
    #: refinement pass, however many candidates or lists one reader
    #: call covers.  Complements ``lists_loaded``, which only sees full
    #: short-list loads.
    point_reads: int = 0
    #: Rows of the query's short lists: what its prune counted runs over.
    rows_scanned: int = 0
    #: Rows of the texts that survived the prune: what reached the kernel.
    rows_kept: int = 0

    @property
    def cpu_seconds(self) -> float:
        """Computation time: total minus I/O (the upper bars of Figure 3)."""
        return max(0.0, self.total_seconds - self.io_seconds)

    def merge(self, other: "QueryStats") -> None:
        """Fold ``other`` into this accumulator, field by field, so a
        counter added later is merged too (a router's shards' stats go
        through here)."""
        for spec in dataclasses.fields(self):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )


@dataclass(frozen=True)
class TextMatch:
    """All qualifying sequences of one text, as disjoint rectangles."""

    text_id: int
    rectangles: tuple[CollisionRectangle, ...]

    def best_count(self) -> int:
        """Highest collision count among the rectangles."""
        return max(rect.count for rect in self.rectangles)

    def spans(self, min_length: int) -> list[Span]:
        """Every individual sequence of length ``>= min_length``."""
        return [
            Span(self.text_id, i, j)
            for rect in self.rectangles
            for (i, j) in rect.iter_spans(min_length)
        ]

    def widest_spans(self, min_length: int) -> list[Span]:
        """One longest sequence per rectangle (compact representation)."""
        spans = []
        for rect in self.rectangles:
            widest = rect.widest_span(min_length)
            if widest is not None:
                spans.append(Span(self.text_id, widest[0], widest[1]))
        return spans


@dataclass
class SearchResult:
    """Output of one near-duplicate search."""

    matches: list[TextMatch]
    stats: QueryStats
    k: int
    theta: float
    beta: int
    t: int

    @property
    def num_texts(self) -> int:
        return len(self.matches)

    def count_spans(self) -> int:
        """Total number of qualifying sequences (before merging)."""
        return sum(
            rect.span_count(self.t)
            for match in self.matches
            for rect in match.rectangles
        )

    def merged_spans(self) -> list[Span]:
        """Disjoint merged near-duplicate regions (Section 3.5 remark)."""
        widest = [
            span for match in self.matches for span in match.widest_spans(self.t)
        ]
        return merge_overlapping_spans(widest)

    def __bool__(self) -> bool:
        return bool(self.matches)


def query_key(sketch: np.ndarray, query: np.ndarray, verify: bool) -> bytes:
    """The identity of a query: its sketch, plus its tokens under ``verify``.

    The key is the sketch's bytes, then ``b"|"`` and the tokens as
    ``uint32`` bytes under ``verify``.  Two queries with one key get one
    result: a plan gives them one row, and the result tier memoizes by
    it.  Exact-Jaccard verification reads the raw query, so with
    ``verify=True`` only byte-identical queries share a key.
    """
    key = np.ascontiguousarray(sketch).tobytes()
    if verify:
        key += b"|" + np.ascontiguousarray(query, dtype=np.uint32).tobytes()
    return key


@dataclass(eq=False)
class BatchPlan:
    """Steps 1–2 of a batch, as ``(U, k)`` arrays over its unique queries.

    The ``U`` unique queries' sketches, list lengths and long-list mask,
    with the threshold and ``verify`` they were planned for.  Built by
    :meth:`NearDuplicateSearcher.plan`; the searcher runs it without
    sketching or looking up list lengths again.
    """

    #: The unique queries: queries with one :func:`query_key` share a row.
    queries: list[np.ndarray]
    sketches: np.ndarray
    lengths: np.ndarray
    #: The lists to prefix-filter away: point-read for candidates only.
    long: np.ndarray
    theta: float
    beta: int
    verify: bool
    #: Each unique query's :func:`query_key`.
    query_keys: list[bytes]
    #: Original query position -> its unique row.
    assignment: list[int]
    #: The reader ``lengths`` came from.
    source: object = field(repr=False)
    plan_seconds: float = 0.0

    @property
    def short(self) -> np.ndarray:
        """The non-empty lists that are not long: what the scan loads."""
        return (self.lengths > 0) & ~self.long

    @functools.cached_property
    def short_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The scan's one read: each ``(query, short list)`` pair's query,
        the distinct lists' ``func << 32 | minhash`` keys and each pair's
        list among them.

        One ``np.unique`` over the pairs' keys.  The lists run by
        ascending demand (the number of unique queries loading them,
        ties by key), so a cache admits the most-shared ones last and
        keeps them when a batch's lists overflow it.
        """
        owner, funcs = self.short.nonzero()
        keys = (funcs.astype(np.uint64) << np.uint64(32)) | self.sketches[
            owner, funcs
        ].astype(np.uint64)
        keys, inverse = np.unique(keys, return_inverse=True)
        order = np.bincount(inverse).argsort(kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return owner, keys[order], rank[inverse]

    @property
    def num_queries(self) -> int:
        return len(self.assignment)

    @property
    def num_unique(self) -> int:
        return len(self.queries)

    def subset(self, rows: list[int]) -> "BatchPlan":
        """The plan of the unique queries ``rows`` alone, in that order."""
        return dataclasses.replace(
            self,
            queries=[self.queries[row] for row in rows],
            sketches=self.sketches[rows],
            lengths=self.lengths[rows],
            long=self.long[rows],
            query_keys=[self.query_keys[row] for row in rows],
            assignment=list(range(len(rows))),
        )


#: :class:`QueryStats`' integer counters, in field order after its two
#: clock fields: the columns of :attr:`BatchAnswer.counters`.
COUNTERS = tuple(spec.name for spec in dataclasses.fields(QueryStats))[2:]
_MATCHED = COUNTERS.index("texts_matched")


@dataclass(eq=False)
class BatchAnswer:
    """Steps 3–5 of a plan's unique queries, as columns: the rectangles
    that pass the length-``t`` filter (narrowed under ``verify``), each
    tagged with its ``(query, text)`` group, and each query's stats."""

    k: int
    t: int
    theta: float
    beta: int
    verify: bool
    #: Each group's unique query (non-decreasing) and text.
    group_query: np.ndarray
    group_text: np.ndarray
    #: The kept rectangles; ``rect.group`` indexes the groups.
    rect: FusedRectangles
    #: ``(U, 2)``: each query's share of the batch's clock and I/O seconds.
    seconds: np.ndarray
    #: ``(U, len(COUNTERS))`` int64: each query's :data:`COUNTERS`.
    counters: np.ndarray

    def results(self, theta: float | None = None) -> list[SearchResult]:
        """One :class:`SearchResult` per unique query, at ``theta``
        (default: the plan's) or a stricter one: the rows with ``count >=
        ceil(k * theta)``.  A looser threshold would miss texts the prune
        dropped and verification ran at the plan's: both are refused."""
        theta = self.theta if theta is None else theta
        beta = collision_threshold(self.k, theta)
        if beta < self.beta or (self.verify and theta != self.theta):
            raise InvalidParameterError(
                f"an answer scanned at theta={self.theta} (beta={self.beta}"
                f"{', verified' if self.verify else ''}) cannot answer theta={theta}"
            )
        rect = self.rect if beta == self.beta else self.rect.filtered(self.rect.count >= beta)
        matches: list[list[TextMatch]] = [[] for _ in self.counters]
        if rect.size:
            rectangles = rect.rectangles()
            firsts = [0, *((rect.group[1:] != rect.group[:-1]).nonzero()[0] + 1).tolist()]
            heads = rect.group[firsts]
            for position, text_id, lo, hi in zip(
                self.group_query[heads].tolist(),
                self.group_text[heads].tolist(),
                firsts,
                [*firsts[1:], rect.size],
            ):
                matches[position].append(TextMatch(text_id, tuple(rectangles[lo:hi])))
        counters = self.counters.copy()
        counters[:, _MATCHED] = [len(found) for found in matches]
        return [
            SearchResult(found, QueryStats(*clock, *row), self.k, theta, beta, self.t)
            for found, clock, row in zip(matches, self.seconds.tolist(), counters.tolist())
        ]

    def as_hit(self) -> "BatchAnswer":
        """This answer as a memo replays it: no clock, I/O or work, only
        ``texts_matched``."""
        counters = np.zeros_like(self.counters)
        counters[:, _MATCHED] = self.counters[:, _MATCHED]
        return dataclasses.replace(
            self, seconds=np.zeros_like(self.seconds), counters=counters
        )

    @staticmethod
    def gather(picks: list[tuple["BatchAnswer", int]]) -> "BatchAnswer":
        """Query ``row`` of each ``(answer, row)`` pick (of one scan's
        parameters) as one answer with its own arrays."""
        rects, texts, sizes = [], [], []
        groups = 0  # kept groups of the earlier picks
        for answer, row in picks:
            lo, hi = answer.group_query.searchsorted([row, row + 1])
            rect = answer.rect.filtered(slice(*answer.rect.group.searchsorted([lo, hi])))
            rects.append(dataclasses.replace(rect, group=rect.group - lo + groups))
            texts.append(answer.group_text[lo:hi])
            sizes.append(hi - lo)
            groups += hi - lo
        return dataclasses.replace(
            picks[0][0],
            group_query=np.arange(len(picks)).repeat(sizes),
            group_text=np.concatenate(texts),
            rect=FusedRectangles.concat(rects),
            seconds=np.array([answer.seconds[row] for answer, row in picks]),
            counters=np.array([answer.counters[row] for answer, row in picks]),
        )


def _list_runs(texts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of text-sorted lists laid end to end.

    ``texts`` is the text column of the lists, ``sizes`` their lengths.
    A list holds each text's windows as one run, so its runs are its
    distinct texts in list order; a list boundary always starts a run.
    Returns every run's first row followed by the row count (run ``r``
    holds rows ``bounds[r]`` up to ``bounds[r + 1]``), and each list's
    first run followed by the run count (list ``i`` holds runs
    ``list_runs[i]`` up to ``list_runs[i + 1]``).
    """
    starts = np.zeros(sizes.size + 1, dtype=np.int64)
    sizes.cumsum(out=starts[1:])
    # One slot past the rows closes the last run.
    firsts = np.ones(texts.size + 1, dtype=bool)
    np.not_equal(texts[1:], texts[:-1], out=firsts[1:-1])
    firsts[starts[:-1][sizes > 0]] = True
    bounds = firsts.nonzero()[0].astype(np.int32)
    return bounds, bounds.searchsorted(starts)


def _counted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, sorted, and how often each occurs: what
    ``np.unique(keys, return_counts=True)`` returns, at half its cost on
    the few thousand keys of one query."""
    ordered = np.sort(keys)
    edges = np.empty(ordered.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edges[1:-1])
    at = edges.nonzero()[0]
    return ordered[at[:-1]], at[1:] - at[:-1]


#: About the most ``(pair, run)`` keys one prune step holds, so the
#: scan's scratch memory (some 40 bytes a key) stays bounded however
#: large the batch.
_PRUNE_KEYS = 1 << 15


def _prune_steps(per_pair: np.ndarray, counts: np.ndarray) -> list[tuple[int, int]]:
    """Pair ranges ``[lo, hi)`` of whole queries, about
    :data:`_PRUNE_KEYS` run keys each (a larger query is a step alone).

    ``per_pair`` is each pair's run count, ``counts`` each query's
    number of pairs (its pairs are consecutive).
    """
    if per_pair.sum() <= _PRUNE_KEYS:
        return [(0, per_pair.size)]
    pair_edges = np.concatenate(([0], counts.cumsum()))
    keys = np.concatenate(([0], per_pair.cumsum()))[pair_edges]
    cuts = keys.searchsorted(np.arange(_PRUNE_KEYS, keys[-1], _PRUNE_KEYS))
    edges = pair_edges[np.unique(np.concatenate(([0], cuts, [counts.size])))].tolist()
    return list(zip(edges[:-1], edges[1:]))


def _sorted_groups(rows: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and their ``groups`` sorted by ``(group, left)``.

    One argsort on the ``group << 32 | left`` key; the kernel's output
    does not depend on the order of ties.  The gather goes through
    ``take``: fancy indexing of a 2-D array is several times slower.
    """
    order = ((groups.astype(np.uint64) << np.uint64(32)) | rows[:, 1]).argsort()
    return rows.take(order, axis=0), groups[order]


def _merged(parts: list[FusedRectangles]) -> FusedRectangles:
    """Kernels' rectangles as one, ordered by group (stable)."""
    parts = [part for part in parts if part.size] or parts[:1]
    if len(parts) == 1:
        return parts[0]
    rect = FusedRectangles.concat(parts)
    return rect.filtered(np.argsort(rect.group, kind="stable"))


class NearDuplicateSearcher:
    """Query processor over an inverted index of compact windows.

    Parameters
    ----------
    index:
        Any :class:`~repro.index.inverted.InvertedIndexReader` — the
        in-memory index or the on-disk one.
    long_list_cutoff:
        Prefix-filter cutoff: query lists longer than this many
        postings are "long" and only point-read for surviving
        candidates.  ``None`` enables a per-query heuristic (8x the
        median length of the query's own k lists); ``0`` disables
        prefix filtering.
    corpus:
        Optional corpus backing the index.  Required only for
        ``verify=True`` searches, which post-filter Definition 2's
        candidates by *exact* Jaccard — turning the approximate engine
        into an exact Definition 1 answer (on the candidates the
        sketching surfaced; recall remains probabilistic).
    """

    def __init__(
        self,
        index: InvertedIndexReader,
        *,
        long_list_cutoff: int | None = None,
        corpus=None,
    ) -> None:
        # Delegating proxies resolve members through ``__getattr__``,
        # so probe with ``hasattr`` rather than ``isinstance``.
        missing = [name for name in _READER_MEMBERS if not hasattr(index, name)]
        if missing:
            raise InvalidParameterError(
                f"{type(index).__name__} is not an InvertedIndexReader: "
                f"missing {', '.join(missing)}"
            )
        self.index = index
        self.family: HashFamily = index.family
        self.t = index.t
        if long_list_cutoff is not None and long_list_cutoff < 0:
            raise InvalidParameterError("long_list_cutoff must be >= 0 or None")
        self.long_list_cutoff = long_list_cutoff
        # A configured cutoff does not depend on the query; hoist it so
        # batch workloads don't re-derive it per query (the ``None``
        # heuristic stays per-query: it uses the query's own lengths).
        self._static_cutoff = (
            int(long_list_cutoff)
            if long_list_cutoff is not None and long_list_cutoff > 0
            else None
        )
        self.corpus = corpus

    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        theta: float,
        *,
        verify: bool = False,
    ) -> SearchResult:
        """Find all sequences colliding with ``query`` in ``>= beta`` trials.

        Parameters
        ----------
        query:
            Token-id sequence (non-empty).
        theta:
            Similarity threshold in ``(0, 1]``; the collision threshold
            is ``beta = ceil(k * theta)``.
        verify:
            Post-filter every candidate sequence by its *exact*
            distinct Jaccard against the query (requires the searcher
            to have been constructed with ``corpus=...``).  Matches
            whose rectangles lose all sequences are dropped.

        The batch of one: its stats' clock starts before planning.
        """
        marks = self._marks()
        plan = self.plan([query], theta, verify=verify)
        return self._search_batch(plan, marks=marks).results()[0]

    def plan(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        verify: bool = False,
        sketches: np.ndarray | None = None,
    ) -> BatchPlan:
        """Steps 1–2 for a batch: sketch, dedup, list lengths, split.

        One :meth:`~repro.core.hashing.HashFamily.sketch_many` call
        sketches the batch (a batch of one goes through
        :meth:`~repro.core.hashing.HashFamily.sketch`, its one-row case)
        unless ``sketches``, one row per query, are supplied: the
        service sketches requests on arrival.  Queries with one
        :func:`query_key` share a row; one ``sketch_list_lengths`` call
        looks up the unique rows' ``(U, k)`` list lengths and
        :meth:`_select_long_lists` splits every row at once.
        """
        begin = time.perf_counter()
        if sketches is not None and len(sketches) != len(queries):
            raise InvalidParameterError(
                f"got {len(sketches)} precomputed sketches for {len(queries)} queries"
            )
        queries = [np.asarray(query) for query in queries]
        if any(query.size == 0 for query in queries):
            raise QueryError("query sequence is empty")
        k = self.family.k
        if sketches is None:
            sketches = (
                self.family.sketch(queries[0])
                if len(queries) == 1
                else self.family.sketch_many(queries)
            )
        sketches = np.asarray(sketches).reshape(len(queries), k)
        rows: dict[bytes, int] = {}
        assignment, unique = [], []
        for position, query in enumerate(queries):
            row = rows.setdefault(query_key(sketches[position], query, verify), len(rows))
            if row == len(unique):
                unique.append(position)
            assignment.append(row)
        if len(unique) < len(queries):
            queries, sketches = [queries[at] for at in unique], sketches[unique]
        beta = collision_threshold(k, theta)
        lengths = np.asarray(self.index.sketch_list_lengths(sketches)).reshape(
            sketches.shape
        )
        return BatchPlan(
            queries=queries,
            sketches=sketches,
            lengths=lengths,
            long=self._select_long_lists(lengths, beta),
            theta=theta,
            beta=beta,
            verify=bool(verify),
            query_keys=list(rows),
            assignment=assignment,
            source=self.index,
            plan_seconds=time.perf_counter() - begin,
        )

    def _marks(self) -> tuple[float, int, int, float]:
        """Clock and I/O counters at the start of a query."""
        io = self.index.io_stats
        return time.perf_counter(), io.bytes_read, io.read_calls, io.seconds

    def _search_batch(
        self,
        plan: BatchPlan,
        *,
        marks: tuple[float, int, int, float] | None = None,
    ) -> BatchAnswer:
        """Steps 3–5 for every unique query of ``plan``, scanned as one
        batch at the plan's threshold and ``verify``: one
        :class:`BatchAnswer` over the unique queries, in order.

        The batch's distinct short lists (:attr:`BatchPlan.short_lists`)
        are read with one ``load_list``, each once however many queries
        share it.  A plan built against another reader (a live index
        that moved to a new generation since) is planned again from its
        sketches.

        A member's ``total_seconds`` is an even share of the batch's wall
        time, counted from ``marks`` (from :meth:`_marks`: a direct
        :meth:`search` counts its planning) or else from this call; its
        ``io_*`` are its own point reads plus an even share of the
        batch's other reads.  The members sum to the batch, and a batch
        of one counts exactly its own reads.
        """
        theta, beta, verify = plan.theta, plan.beta, plan.verify
        if verify and self.corpus is None:
            raise InvalidParameterError(
                "verify=True requires the searcher to be built with corpus=..."
            )
        if marks is None:
            marks = self._marks()
        if plan.source is not self.index and plan.source is not getattr(
            self.index, "inner", None
        ):
            plan = self.plan(plan.queries, theta, verify=verify, sketches=plan.sketches)
        size = plan.num_unique
        owner, list_keys, slots = plan.short_lists
        counts = np.bincount(owner, minlength=size)
        long_counts = plan.long.sum(axis=1)
        postings, sizes = self.index.load_list(
            (list_keys >> np.uint64(32)).astype(np.int64),
            (list_keys & np.uint64(0xFFFFFFFF)).astype(np.int64),
        )
        rows = posting_rows(postings)

        # The prune (step 3): a ``(query, text)`` group's count is the
        # number of the query's short lists holding a run of the text.
        # One count (:func:`_counted`) over the pairs' run keys, ``query *
        # span + text`` in the narrowest type that holds them, counts
        # them all, a step of whole queries at a time (:func:`_prune_steps`).
        texts = rows[:, 0]
        bounds, list_runs = _list_runs(texts, sizes)
        span = int(texts.max()) + 1 if texts.size else 1
        key_type = np.uint32 if size * span <= 1 << 32 else np.uint64
        span = key_type(span)
        alpha = np.maximum(beta - long_counts, 1)
        per_pair = (list_runs[1:] - list_runs[:-1])[slots]
        rows_scanned = np.bincount(owner, sizes[slots], size)
        scanned, rows_kept = np.zeros((2, size), dtype=np.int64)
        groups, found, rects, short_rows, short_groups = [], [], [], [], []
        offset = 0  # surviving groups of the earlier steps
        for lo, hi in _prune_steps(per_pair, counts):
            first_rows = bounds[:-1][
                range_indices(list_runs[slots[lo:hi]], per_pair[lo:hi])
            ]
            keys = owner[lo:hi].astype(key_type).repeat(per_pair[lo:hi]) * span
            keys += texts[first_rows]
            group_keys, lists_per_group = _counted(keys)
            group_query = (group_keys // span).astype(np.int64)
            scanned += np.bincount(group_query, minlength=size)
            survive = lists_per_group >= alpha[group_query]
            survivors, group_query = group_keys[survive], group_query[survive]
            # Gather the surviving runs' rows, one kernel pass at each
            # query's reduced threshold.
            slot = survivors.searchsorted(keys)
            np.minimum(slot, max(survivors.size - 1, 0), out=slot)
            hit = (survivors[slot] == keys).nonzero()[0] if survivors.size else slot[:0]
            starts = first_rows[hit]
            lengths = bounds[bounds.searchsorted(starts, side="right")] - starts
            kept, kept_groups = _sorted_groups(
                rows.take(range_indices(starts, lengths), axis=0),
                slot[hit].repeat(lengths),
            )
            rows_kept += np.bincount(group_query[kept_groups], minlength=size)
            rect = fused_collision_count(*kept.T[1:], kept_groups, alpha[group_query])
            candidate = np.zeros(survivors.size, dtype=bool)
            candidate[rect.group] = True
            found.append(candidate.nonzero()[0] + offset)
            # Candidates of queries with long lists keep their rows.
            refine = (candidate & (long_counts[group_query] > 0))[kept_groups]
            short_rows.append(kept.compress(refine, axis=0))
            short_groups.append(kept_groups[refine] + offset)
            if offset:
                rect = dataclasses.replace(rect, group=rect.group + offset)
            rects.append(rect)
            groups.append(survivors)
            offset += survivors.size
        groups = np.concatenate(groups)
        group_query = (groups // span).astype(np.int64)
        group_texts = (groups % span).astype(np.int64)
        rect = _merged(rects)
        found = np.concatenate(found)
        found_query = group_query[found]

        # Refinement (step 4) for the queries with long lists: one point
        # read per query over all its candidates, then one kernel pass
        # at ``beta`` over every refined group.
        own_io = np.zeros((size, 2), dtype=np.int64)  # point-read bytes, calls
        own_seconds = np.zeros(size)
        refined = found[long_counts[found_query] > 0]
        if refined.size:
            edges = group_query[refined].searchsorted(np.arange(size + 1)).tolist()
            for position in (np.diff(edges) > 0).nonzero()[0].tolist():
                long_funcs = plan.long[position].nonzero()[0]
                before = self._marks()
                postings, _ = self.index.load_texts_windows(
                    long_funcs,
                    plan.sketches[position, long_funcs],
                    group_texts[refined[edges[position] : edges[position + 1]]],
                )
                after = self._marks()
                own_io[position] = after[1] - before[1], after[2] - before[2]
                own_seconds[position] = after[3] - before[3]
                long_rows = posting_rows(postings)
                short_rows.append(long_rows)
                short_groups.append(
                    groups.searchsorted(key_type(position) * span + long_rows[:, 0])
                )
            refine, refine_groups = _sorted_groups(
                np.concatenate(short_rows), np.concatenate(short_groups)
            )
            first = rect.filtered(long_counts[group_query[rect.group]] == 0)
            second = fused_collision_count(*refine.T[1:], refine_groups, beta)
            rect = _merged([first, second])

        # Step 5: the sequences of length >= t, and the groups they keep.
        rect = rect.filtered(rect.j_hi - rect.i_lo + 1 >= self.t)
        if verify:
            rect = self._verified(plan, rect, group_query, group_texts)
        matched = np.ones(rect.size, dtype=bool)  # each group's first row
        np.not_equal(rect.group[1:], rect.group[:-1], out=matched[1:])

        # Counters per query by bincount, in ``COUNTERS`` order; the
        # clock and the reads other than a query's own point reads are
        # shared out evenly (integer shares sum to the batch's).
        elapsed = time.perf_counter() - marks[0]
        end = self._marks()
        candidates = np.bincount(found_query, minlength=size)
        members = max(size, 1)  # an empty plan has nothing to share
        shared = np.array([end[1] - marks[1], end[2] - marks[2]]) - own_io.sum(axis=0)
        shares = shared * np.arange(size + 1)[:, None] // members
        counters = np.column_stack(
            (own_io + shares[1:] - shares[:-1], counts, long_counts, scanned)
            + (candidates, np.bincount(group_query[rect.group[matched]], minlength=size))
            + ((candidates > 0) * long_counts, rows_scanned, rows_kept)
        ).astype(np.int64)
        io_seconds = own_seconds + (end[3] - marks[3] - own_seconds.sum()) / members
        logger.debug(
            "query theta=%.2f beta=%d: batch of %d, %d candidates, %.1fms",
            *(theta, beta, size, found.size, 1e3 * elapsed),
        )
        return BatchAnswer(
            *(self.family.k, self.t, theta, beta, verify),
            *(group_query, group_texts, rect),
            np.column_stack((np.full(size, elapsed / members), io_seconds)),
            counters,
        )

    # ------------------------------------------------------------------
    def search_thetas(
        self, query: np.ndarray, thetas: list[float]
    ) -> dict[float, SearchResult]:
        """Answer one query at several thresholds with a single index pass.

        One scan at ``min(thetas)``; every threshold is cut from its
        answer (:meth:`BatchAnswer.results`), so Figure 4's theta axis
        costs one pass, not one per theta.
        """
        if not thetas:
            raise InvalidParameterError("at least one theta is required")
        marks = self._marks()
        answer = self._search_batch(self.plan([query], min(thetas)), marks=marks)
        return {theta: answer.results(theta)[0] for theta in thetas}

    # ------------------------------------------------------------------
    def _verified(
        self,
        plan: BatchPlan,
        rect: FusedRectangles,
        group_query: np.ndarray,
        group_texts: np.ndarray,
    ) -> FusedRectangles:
        """Exact-Jaccard filter: shrink each rectangle to the verified pairs.

        A rectangle is kept iff at least one of its sequences passes;
        kept rectangles are narrowed to the bounding box of the passing
        ``(i, j)`` pairs (pairs inside that box that failed remain
        excluded from :meth:`TextMatch.spans` only when callers
        re-verify, so :meth:`SearchResult.merged_spans` stays a sound
        over-approximation — the common deployment merges regions
        anyway).
        """
        bounds = np.stack((rect.i_lo, rect.i_hi, rect.j_lo, rect.j_hi))
        keep = np.zeros(rect.size, dtype=bool)
        for row, (group, rectangle) in enumerate(zip(rect.group, rect.rectangles())):
            query = plan.queries[group_query[group]]
            text = np.asarray(self.corpus[int(group_texts[group])])
            passing = [
                (i, j)
                for (i, j) in rectangle.iter_spans(self.t)
                if distinct_jaccard(query, text[i : j + 1]) >= plan.theta
            ]
            if passing:
                i_values, j_values = zip(*passing)
                bounds[:, row] = min(i_values), max(i_values), min(j_values), max(j_values)
                keep[row] = True
        return FusedRectangles(rect.group, *bounds, rect.count).filtered(keep)

    # ------------------------------------------------------------------
    def search_many(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        verify: bool = False,
        batch_size: int | None = None,
    ) -> list[SearchResult]:
        """Answer a batch of queries through the batch executor.

        Matches and parameters are identical to calling :meth:`search`
        per query — batching is a pure execution strategy: the batch is
        planned (duplicate sketches deduplicated) and each distinct
        inverted list is read once.  Callers that want the aggregated
        :class:`~repro.query.results.BatchStats` should use
        :class:`~repro.query.executor.BatchQueryExecutor` directly.
        """
        from repro.query.executor import BatchQueryExecutor

        with BatchQueryExecutor(self, batch_size=batch_size) as executor:
            return executor.execute(queries, theta, verify=verify).results

    def _effective_cutoff(self, lengths: np.ndarray) -> np.ndarray:
        """The long-list cutoff of each query (each row of ``lengths``).

        ``_NO_CUTOFF`` (no list is long) where prefix filtering is off:
        ``long_list_cutoff=0``, or a query without a non-empty list
        under the heuristic.  A configured cutoff is the hoisted
        constant; only the default heuristic, ``max(64, 8 × median)`` of
        the query's own non-empty list lengths, depends on the row.
        The median is read off each row sorted once: its non-empty
        lengths sit at the end.
        """
        lengths = np.asarray(lengths)
        if self.long_list_cutoff == 0:
            return np.full(lengths.shape[:-1], _NO_CUTOFF)
        if self._static_cutoff is not None:
            return np.full(lengths.shape[:-1], self._static_cutoff)
        k = lengths.shape[-1]
        ordered = np.sort(lengths.reshape(-1, k).astype(np.int64, copy=False), axis=1)
        positive = (ordered > 0).sum(axis=1)
        rows = np.arange(ordered.shape[0])
        first = k - positive
        median = (
            ordered[rows, np.minimum(first + (positive - 1) // 2, k - 1)]
            + ordered[rows, np.minimum(first + positive // 2, k - 1)]
        ) // 2
        cutoffs = np.where(positive > 0, np.maximum(64, 8 * median), _NO_CUTOFF)
        return cutoffs.reshape(lengths.shape[:-1])

    def _select_long_lists(self, lengths: np.ndarray, beta: int) -> np.ndarray:
        """Which of each query's ``k`` lists to prefix-filter away.

        ``lengths`` is one query's ``k`` list lengths or a ``(B, k)``
        matrix of them; returns a boolean mask of the same shape, every
        row split at once.  Correctness cap: with ``k - p`` long lists,
        the short-list collision threshold is ``beta - (k - p)``; it
        must stay ``>= 1`` (a candidate must collide at least once among
        the short lists), so at most ``beta - 1`` lists may be long.
        The longest lists are preferred, ties by function order.
        """
        lengths = np.asarray(lengths)
        k = lengths.shape[-1]
        long = lengths > self._effective_cutoff(lengths)[..., None]
        max_long = max(0, beta - 1)
        rows = long.reshape(-1, k)  # a view: writes land in ``long``
        capped = rows.sum(axis=1) > max_long
        if capped.any():
            chosen = rows[capped]
            # Candidates by descending length (stable: ties keep
            # function order), the others after them.
            key = np.where(chosen, -lengths.reshape(-1, k)[capped], 1)
            order = np.argsort(key, axis=1, kind="stable")
            rank = np.empty_like(order)
            np.put_along_axis(rank, order, np.arange(k)[None, :], axis=1)
            rows[capped] = chosen & (rank < max_long)
        return long
