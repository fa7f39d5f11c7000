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
   prune counts *runs*, not rows: each list's run texts (its distinct
   text ids, :func:`_run_texts`) go through one ``np.unique`` with
   counts, and the lists' rows are joined only when some text survives.
   The kept texts' windows are grouped by text and run through
   :func:`~repro.core.intervals.collision_count` with that reduced
   threshold;
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
than the same operation on rows, and a query runs each at least once.

Steps 1–2 are planned a batch at a time:
:meth:`NearDuplicateSearcher.plan_many` sketches every query with one
:meth:`~repro.core.hashing.HashFamily.sketch_many` call, looks up the
``(B, k)`` list lengths with one ``sketch_list_lengths`` call and splits
every row with one vectorized :meth:`~NearDuplicateSearcher._select_long_lists`;
:meth:`~NearDuplicateSearcher.plan_query` is its batch of one, and
:meth:`NearDuplicateSearcher.search` is that plus steps 3–5.  The batch
executor runs the entries its planner already built, each reading its
short lists — rows and run texts — from the batch's :class:`PinnedView`,
so a batched query is sketched and looked up exactly once and its
pinned lists are read without another cache lookup.  A query outside a
batch reads through an empty view, so every list goes through the
reader's ``load_list`` on the same path.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.hashing import HashFamily
from repro.core.intervals import (
    CollisionRectangle,
    fused_collision_count,
)
from repro.core.theory import collision_threshold
from repro.core.verify import Span, merge_overlapping_spans
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

    @property
    def cpu_seconds(self) -> float:
        """Computation time: total minus I/O (the upper bars of Figure 3)."""
        return max(0.0, self.total_seconds - self.io_seconds)

    def merge(self, other: "QueryStats") -> None:
        """Fold ``other`` into this accumulator, field by field.

        Enumerates the dataclass fields so a counter added to
        ``QueryStats`` later is merged automatically — shard fan-out
        and batch accumulation both go through here, and a hand-written
        sum would silently drop new fields (as happened with
        ``point_reads``).
        """
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


@dataclass(frozen=True)
class PlannedQuery:
    """One query, sketched and split into short and long lists.

    Built by :meth:`NearDuplicateSearcher.plan_many` (the batch planner
    builds one per unique query, :meth:`~NearDuplicateSearcher.plan_query`
    a batch of one); the searcher runs it without sketching or looking
    up list lengths again.
    """

    query: np.ndarray
    sketch: np.ndarray
    lengths: np.ndarray
    beta: int
    long_funcs: frozenset[int]
    #: Functions of the non-empty short lists, ascending: what the
    #: search loads in full.
    short_funcs: np.ndarray
    #: The reader ``lengths`` came from.
    source: object = field(compare=False, repr=False)


def derive_theta_result(base: SearchResult, theta: float) -> SearchResult:
    """Restrict a loose-threshold result to a stricter ``theta``.

    The collision-count rectangles carry *exact* counts, so a result
    computed at a loose threshold contains every stricter answer: keep
    the rectangles with ``count >= ceil(k * theta)``.  Used by
    :meth:`NearDuplicateSearcher.search_thetas` and the batch executor's
    multi-theta path; the derived result reuses the base query's stats
    (the index was touched once).
    """
    beta = collision_threshold(base.k, theta)
    matches = []
    for match in base.matches:
        kept = tuple(rect for rect in match.rectangles if rect.count >= beta)
        if kept:
            matches.append(TextMatch(match.text_id, kept))
    return SearchResult(
        matches=matches,
        stats=QueryStats(**{**vars(base.stats), "texts_matched": len(matches)}),
        k=base.k,
        theta=theta,
        beta=beta,
        t=base.t,
    )


def _group_by_text(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rows`` sorted by ``(text, left)``, with each text's first row and row count.

    One stable argsort on the ``text << 32 | left`` key does the work of
    a two-field ``lexsort`` and keeps its order for ``(text, left)``
    ties.  The gather goes through ``np.take``: fancy indexing of a 2-D
    array is several times slower.
    """
    key = (rows[:, 0].astype(np.uint64) << np.uint64(32)) | rows[:, 1]
    rows = np.take(rows, np.argsort(key, kind="stable"), axis=0)
    texts = rows[:, 0]
    starts = np.flatnonzero(np.concatenate(([True], texts[1:] != texts[:-1])))
    return rows, starts, np.diff(np.append(starts, texts.size))


def _run_texts(texts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every list's run texts, concatenated, and how many each non-empty
    list has.

    ``texts`` is the text column of text-sorted lists laid end to end,
    ``sizes`` their lengths.  A list holds each text's windows as one
    run, so its *run texts* are its distinct text ids in list order: the
    text of each row that starts a run.  One vector pass covers every
    list (a list boundary always starts a run).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    firsts = np.ones(texts.size, dtype=bool)
    np.not_equal(texts[1:], texts[:-1], out=firsts[1:])
    starts = (np.cumsum(sizes) - sizes)[sizes > 0]
    firsts[starts] = True
    return texts[firsts], np.add.reduceat(firsts, starts, dtype=np.int64)


class PinnedView:
    """The lists one batch pinned, as its queries read them.

    Built once per batch from the lists a
    :class:`~repro.index.cache.CachedIndexReader` ``pin`` call hands
    back: each list's rows and its run texts (:func:`_run_texts`, one
    vector pass over every pinned list).  A planned query reads its
    short lists here instead of through ``load_list``; a list the view
    does not hold (left outside the pin budget) is read through the
    searcher's reader as usual.  Every list served here is a hit of
    ``reader``, counted and made recent through its ``touch``, just as
    a ``load_list`` of a resident list would.  The empty view
    (``_NO_VIEW``) is how a query outside a batch reads its lists.
    """

    def __init__(
        self,
        reader,
        funcs: np.ndarray,
        minhashes: np.ndarray,
        lists: list[np.ndarray],
    ) -> None:
        self.reader = reader
        held = np.array(
            [i for i, postings in enumerate(lists) if postings.size], dtype=np.int64
        )
        funcs = np.asarray(funcs, dtype=np.int64)[held]
        minhashes = np.asarray(minhashes, dtype=np.int64)[held]
        keys = (funcs.astype(np.uint64) << np.uint64(32)) | minhashes.astype(
            np.uint64
        )
        order = np.argsort(keys)
        #: Sorted ``func << 32 | minhash`` keys of the held lists.
        self.keys = keys[order]
        self._pairs = list(zip(funcs[order].tolist(), minhashes[order].tolist()))
        self._rows = [posting_rows(lists[i]) for i in held[order].tolist()]
        self._runs = np.empty(0, dtype=np.uint32)
        self._run_counts = np.empty(0, dtype=np.int64)
        if self._rows:
            self._runs, self._run_counts = _run_texts(
                np.concatenate([rows[:, 0] for rows in self._rows]),
                [rows.shape[0] for rows in self._rows],
            )
        self._run_starts = np.cumsum(self._run_counts) - self._run_counts

    def read(
        self, funcs: np.ndarray, minhashes: np.ndarray, load_list
    ) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Row blocks that, laid end to end, are the rows of every list
        among the ``(funcs, minhashes)`` pairs in pair order, and all
        their run texts (in no particular order; ``None`` without rows).
        Pairs the view does not hold are read with ``load_list``, in one
        call."""
        wanted = (funcs.astype(np.uint64) << np.uint64(32)) | minhashes.astype(
            np.uint64
        )
        if self.keys.size:
            slots = np.minimum(np.searchsorted(self.keys, wanted), self.keys.size - 1)
            found = self.keys[slots] == wanted
        else:
            slots = np.zeros(wanted.size, dtype=np.int64)
            found = np.zeros(wanted.size, dtype=bool)
        hits = slots[found]
        if not hits.size:
            # Nothing held here (always so for ``_NO_VIEW``, so for every
            # unbatched query): one read, one row view, no per-pair merge.
            postings, sizes = load_list(funcs, minhashes)
            if not postings.size:
                return [], None
            rows = posting_rows(postings)
            return [rows], _run_texts(rows[:, 0], sizes)[0]
        self.reader.touch([self._pairs[slot] for slot in hits.tolist()])
        runs = [
            self._runs[range_indices(self._run_starts[hits], self._run_counts[hits])]
        ]
        if hits.size == wanted.size:
            return [self._rows[slot] for slot in hits.tolist()], runs[0]
        postings, sizes = load_list(funcs[~found], minhashes[~found])
        missed = posting_rows(postings)
        runs.append(_run_texts(missed[:, 0], sizes)[0])
        # The misses' slices of their one batch, between the hits.
        loaded = iter(np.split(missed, np.cumsum(sizes)[:-1]))
        rows = [
            self._rows[slot] if hit else next(loaded)
            for slot, hit in zip(slots.tolist(), found.tolist())
        ]
        return [part for part in rows if part.size], np.concatenate(runs)


#: The view of no pinned batch: every list is read through ``load_list``.
_NO_VIEW = PinnedView(None, np.empty(0), np.empty(0), [])


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
        """
        marks = self._marks()
        return self._search_planned(
            self.plan_query(query, theta),
            theta,
            verify=verify,
            marks=marks,
        )

    def plan_query(
        self,
        query: np.ndarray,
        theta: float,
        *,
        sketch: np.ndarray | None = None,
    ) -> PlannedQuery:
        """Steps 1–2 for one query: :meth:`plan_many` over a batch of one.

        ``sketch`` optionally supplies the query's precomputed k-mins
        sketch (the service sketches requests on arrival); otherwise
        :meth:`~repro.core.hashing.HashFamily.sketch`, the one-row case
        of ``sketch_many``, computes it.
        """
        if sketch is None:
            query = np.asarray(query)
            if query.size == 0:
                raise QueryError("query sequence is empty")
            sketch = self.family.sketch(query)
        return self.plan_many([query], theta, sketches=[sketch])[0]

    def plan_many(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        sketches: np.ndarray | None = None,
    ) -> list[PlannedQuery]:
        """Steps 1–2 for a batch: sketch, list lengths, long/short split.

        One :meth:`~repro.core.hashing.HashFamily.sketch_many` call
        sketches the batch (unless ``sketches``, one row per query, are
        supplied), one ``sketch_list_lengths`` call looks up its
        ``(B, k)`` list lengths, and :meth:`_select_long_lists` splits
        every row at once.  Returns one entry per query, in order.
        """
        queries = [np.asarray(query) for query in queries]
        if any(query.size == 0 for query in queries):
            raise QueryError("query sequence is empty")
        beta = collision_threshold(self.family.k, theta)
        if sketches is None:
            sketches = self.family.sketch_many(queries)
        sketches = np.asarray(sketches).reshape(len(queries), self.family.k)
        lengths = np.asarray(self.index.sketch_list_lengths(sketches)).reshape(
            sketches.shape
        )
        long = self._select_long_lists(lengths, beta)
        short = (lengths > 0) & ~long
        return [
            PlannedQuery(
                query=query,
                sketch=sketches[row],
                lengths=lengths[row],
                beta=beta,
                long_funcs=frozenset(np.flatnonzero(long[row]).tolist()),
                short_funcs=np.flatnonzero(short[row]),
                source=self.index,
            )
            for row, query in enumerate(queries)
        ]

    def _marks(self) -> tuple[float, int, int, float]:
        """Clock and I/O counters at the start of a query."""
        io = self.index.io_stats
        return time.perf_counter(), io.bytes_read, io.read_calls, io.seconds

    def _search_planned(
        self,
        entry: PlannedQuery,
        theta: float,
        *,
        verify: bool = False,
        marks: tuple[float, int, int, float] | None = None,
        view: PinnedView | None = None,
    ) -> SearchResult:
        """Steps 3–5 for a planned query: load, scan, refine, report.

        An entry planned against another reader (a live index that
        moved to a new generation since) is planned again here from its
        sketch, since its list lengths may no longer hold, and it reads
        its lists through this searcher's reader, never from ``view``
        (the batch's :class:`PinnedView`, pinned on the reader the plan
        came from).  ``marks`` (from :meth:`_marks`) starts the stats'
        clock earlier, so a direct :meth:`search` also counts its
        planning.
        """
        if verify and self.corpus is None:
            raise InvalidParameterError(
                "verify=True requires the searcher to be built with corpus=..."
            )
        if marks is None:
            marks = self._marks()
        source = entry.source
        if source is not self.index and source is not getattr(
            self.index, "inner", None
        ):
            entry = self.plan_query(entry.query, theta, sketch=entry.sketch)
            view = None
        if view is None or view.reader is not self.index:
            view = _NO_VIEW
        stats = QueryStats()
        beta = entry.beta
        long_funcs = entry.long_funcs
        stats.long_lists = len(long_funcs)
        alpha_short = beta - len(long_funcs)

        # Read the short lists (from the batch's view; what it does not
        # hold in one read) so windows of one text from all short lists
        # are scanned together.
        short_funcs = entry.short_funcs
        stats.lists_loaded += int(short_funcs.size)
        matches: list[TextMatch] = []
        if short_funcs.size:
            rows, runs = view.read(
                short_funcs, entry.sketch[short_funcs], self.index.load_list
            )
            if rows:
                matches = self._scan(
                    rows,
                    runs,
                    alpha_short,
                    beta,
                    entry.sketch,
                    long_funcs,
                    stats,
                    entry.query,
                    theta,
                    verify,
                )

        begin, io_bytes0, io_calls0, io_seconds0 = marks
        io = self.index.io_stats
        stats.total_seconds = time.perf_counter() - begin
        stats.io_bytes = io.bytes_read - io_bytes0
        stats.io_calls = io.read_calls - io_calls0
        stats.io_seconds = io.seconds - io_seconds0
        stats.texts_matched = len(matches)
        logger.debug(
            "query theta=%.2f beta=%d: %d matches, %d candidates, "
            "%d long lists, %.1fms (%d bytes io)",
            theta,
            beta,
            len(matches),
            stats.candidates,
            stats.long_lists,
            1e3 * stats.total_seconds,
            stats.io_bytes,
        )
        return SearchResult(
            matches=matches,
            stats=stats,
            k=self.family.k,
            theta=theta,
            beta=beta,
            t=self.t,
        )

    # ------------------------------------------------------------------
    def _scan(
        self,
        short_rows: list[np.ndarray],
        run_texts: np.ndarray,
        alpha_short: int,
        beta: int,
        sketch: np.ndarray,
        long_funcs: set[int],
        stats: QueryStats,
        query: np.ndarray,
        theta: float,
        verify: bool,
    ) -> list[TextMatch]:
        """Vectorized group scan: one fused kernel pass over all groups.

        Produces exactly the matches (and ordering) of the scalar
        per-group Algorithm 4/5 loop.  Texts are pruned by the number of
        short *lists* they appear in, not by their number of windows: a
        sequence lies in at most one compact window per hash function,
        so that count bounds every collision count of the text.
        ``run_texts`` holds every short list's run texts (its distinct
        text ids, :func:`_run_texts`), so the count is one
        ``np.unique(..., return_counts=True)`` over runs, not rows; an
        unsorted list would only overcount, which keeps the bound
        sound.  Only when some text reaches ``alpha_short`` are the
        short lists' rows joined, and only the surviving texts' rows
        are sorted by ``(text, left)``; the double sweep runs as flat
        event arrays over all of them at once.  Long-list refinement
        then gathers *all* surviving candidates and issues one grouped
        zone-map read over all long lists instead of one point read per
        candidate per list.
        """
        all_texts, lists_per_text = np.unique(run_texts, return_counts=True)
        stats.groups_scanned += int(all_texts.size)
        keep = lists_per_text >= alpha_short
        if not keep.any():
            return []
        group_texts = all_texts[keep]
        rows = short_rows[0] if len(short_rows) == 1 else np.concatenate(short_rows)
        texts = rows[:, 0]
        found = np.minimum(np.searchsorted(group_texts, texts), group_texts.size - 1)
        kept, _, kept_sizes = _group_by_text(
            np.compress(group_texts[found] == texts, rows, axis=0)
        )
        group_texts = group_texts.astype(np.int64)
        group_ids = np.repeat(
            np.arange(kept_sizes.size, dtype=np.int64), kept_sizes
        )
        rect = fused_collision_count(
            kept[:, 1], kept[:, 2], kept[:, 3], group_ids, max(alpha_short, 1)
        )
        cand_groups = np.unique(rect.group)
        stats.candidates += int(cand_groups.size)
        if cand_groups.size == 0:
            return []

        if long_funcs:
            # Batched long-list refinement: one grouped point read of
            # every long list covering every surviving candidate, then
            # one fused pass at the full threshold beta.
            cand_texts = group_texts[cand_groups]
            is_candidate = np.zeros(kept_sizes.size, dtype=bool)
            is_candidate[cand_groups] = True
            parts = [kept[np.repeat(is_candidate, kept_sizes)]]
            parts.append(self._read_long_lists(long_funcs, sketch, cand_texts, stats))
            combined, cstarts, csizes = _group_by_text(np.concatenate(parts))
            cgroup_ids = np.repeat(
                np.arange(csizes.size, dtype=np.int64), csizes
            )
            rect = fused_collision_count(
                combined[:, 1], combined[:, 2], combined[:, 3], cgroup_ids, beta
            )
            group_texts = combined[cstarts, 0].astype(np.int64)

        rect = rect.filtered(rect.j_hi - rect.i_lo + 1 >= self.t)
        matches: list[TextMatch] = []
        for group in np.unique(rect.group).tolist():
            lo, hi = rect.group_slice(group)
            rectangles = rect.rectangles(lo, hi)
            text_id = int(group_texts[group])
            if verify:
                rectangles = self._verify_rectangles(
                    query, theta, text_id, rectangles
                )
            if rectangles:
                matches.append(TextMatch(text_id, tuple(rectangles)))
        return matches

    # ------------------------------------------------------------------
    def _read_long_lists(
        self,
        long_funcs: set[int],
        sketch: np.ndarray,
        text_ids: np.ndarray,
        stats: QueryStats,
    ) -> np.ndarray:
        """The rows of ``text_ids`` in every long list, one read for all.

        ``point_reads`` still counts one per long list, so the counter
        means the same whatever the reader batches.
        """
        funcs = np.array(sorted(long_funcs), dtype=np.int64)
        stats.point_reads += int(funcs.size)
        postings, _ = self.index.load_texts_windows(funcs, sketch[funcs], text_ids)
        return posting_rows(postings)

    # ------------------------------------------------------------------
    def search_thetas(
        self, query: np.ndarray, thetas: list[float]
    ) -> dict[float, SearchResult]:
        """Answer one query at several thresholds with a single index pass.

        The collision-count rectangles carry *exact* counts, so a run
        at the loosest threshold ``min(thetas)`` already contains every
        stricter answer: the result for a larger ``theta`` is simply
        the rectangles with ``count >= ceil(k * theta)``.  Memorization
        sweeps (Figure 4's theta axis) become one pass instead of one
        per theta.
        """
        if not thetas:
            raise InvalidParameterError("at least one theta is required")
        base = self.search(query, min(thetas))
        return {theta: derive_theta_result(base, theta) for theta in thetas}

    # ------------------------------------------------------------------
    def _verify_rectangles(
        self,
        query: np.ndarray,
        theta: float,
        text_id: int,
        rectangles: list[CollisionRectangle],
    ) -> list[CollisionRectangle]:
        """Exact-Jaccard filter: shrink each rectangle to the verified pairs.

        A rectangle is kept iff at least one of its sequences passes;
        kept rectangles are narrowed to the bounding box of the passing
        ``(i, j)`` pairs (pairs inside that box that failed remain
        excluded from :meth:`TextMatch.spans` only when callers
        re-verify, so :meth:`SearchResult.merged_spans` stays a sound
        over-approximation — the common deployment merges regions
        anyway).
        """
        from repro.core.verify import distinct_jaccard

        text = np.asarray(self.corpus[text_id])
        verified: list[CollisionRectangle] = []
        for rect in rectangles:
            passing = [
                (i, j)
                for (i, j) in rect.iter_spans(self.t)
                if distinct_jaccard(query, text[i : j + 1]) >= theta
            ]
            if not passing:
                continue
            i_values = [i for i, _ in passing]
            j_values = [j for _, j in passing]
            verified.append(
                CollisionRectangle(
                    i_lo=min(i_values),
                    i_hi=max(i_values),
                    j_lo=min(j_values),
                    j_hi=max(j_values),
                    count=rect.count,
                )
            )
        return verified

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
        planned (duplicate sketches deduplicated, distinct inverted
        lists pinned once).  Callers that want the aggregated
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
