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
   kept texts' windows are grouped by text and run through
   :func:`~repro.core.intervals.collision_count` with that reduced
   threshold;
4. for each surviving candidate text, point-reads its windows from the
   long lists through their zone maps and re-runs ``collision_count``
   with the full threshold ``beta = ceil(k * theta)``;
5. reports all sequences of length ``>= t`` contained in ``>= beta``
   colliding windows — Definition 2's output, sound and complete
   (Theorem 2).

Readers hand back :data:`~repro.index.inverted.POSTING_DTYPE` records;
the scan works on their ``(n, 4)`` ``uint32`` row views (the same
bytes, see :func:`~repro.index.inverted.posting_rows`).  numpy's
structured-dtype machinery makes every concatenate, sort and mask of
records several times dearer than the same operation on rows, and a
query runs each of them at least once.

:meth:`NearDuplicateSearcher.plan_query` does steps 1–2 and returns a
:class:`PlannedQuery`; :meth:`NearDuplicateSearcher.search` is that plus
steps 3–5.  The batch executor runs the entries its planner already
built, so a batched query is sketched and looked up exactly once.
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
from repro.index.inverted import InvertedIndexReader, posting_rows

logger = logging.getLogger(__name__)

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


#: A list key: (hash function, min-hash value).
ListKey = tuple[int, int]


@dataclass(frozen=True)
class PlannedQuery:
    """One query, sketched and split into short and long lists.

    Built by :meth:`NearDuplicateSearcher.plan_query` (the batch planner
    builds one per unique query); the searcher runs it without
    sketching or looking up list lengths again.
    """

    position: int
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

    @property
    def short_keys(self) -> list[ListKey]:
        """The lists the search will fully load (non-empty short lists)."""
        return list(
            zip(self.short_funcs.tolist(), self.sketch[self.short_funcs].tolist())
        )


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
        stats=dataclasses.replace(base.stats, texts_matched=len(matches)),
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
        position: int = 0,
    ) -> PlannedQuery:
        """Steps 1–2 for one query: sketch, list lengths, long/short split.

        ``sketch`` optionally supplies the query's precomputed k-mins
        sketch (the service sketches requests on arrival).
        """
        query = np.asarray(query)
        if query.size == 0:
            raise QueryError("query sequence is empty")
        beta = collision_threshold(self.family.k, theta)
        if sketch is None:
            sketch = self.family.sketch(query)
        lengths = self.index.sketch_list_lengths(sketch)
        long_funcs = self._select_long_lists(lengths, beta)
        is_short = lengths > 0
        is_short[list(long_funcs)] = False
        return PlannedQuery(
            position=position,
            query=query,
            sketch=sketch,
            lengths=lengths,
            beta=beta,
            long_funcs=frozenset(long_funcs),
            short_funcs=np.flatnonzero(is_short),
            source=self.index,
        )

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
    ) -> SearchResult:
        """Steps 3–5 for a planned query: load, scan, refine, report.

        An entry planned against another reader (a live index that
        moved to a new generation since) is planned again here from its
        sketch, since its list lengths may no longer hold.  ``marks``
        (from :meth:`_marks`) starts the stats' clock earlier, so a
        direct :meth:`search` also counts its planning.
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
            entry = self.plan_query(
                entry.query, theta, sketch=entry.sketch, position=entry.position
            )
        stats = QueryStats()
        beta = entry.beta
        long_funcs = entry.long_funcs
        stats.long_lists = len(long_funcs)
        alpha_short = beta - len(long_funcs)

        # Load the short lists (one read for all of them) so windows of
        # one text from all short lists can be scanned together.
        short_funcs = entry.short_funcs
        stats.lists_loaded += int(short_funcs.size)
        short_chunks: list[np.ndarray] = []
        if short_funcs.size:
            short_chunks = [
                postings
                for postings in self.index.load_list(
                    short_funcs, entry.sketch[short_funcs]
                )
                if postings.size
            ]

        matches: list[TextMatch] = []
        if short_chunks:
            matches = self._scan(
                short_chunks,
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
        short_chunks: list[np.ndarray],
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
        so that count bounds every collision count of the text.  A list
        holds one text's windows as one run (lists are sorted by text),
        so the count is the number of run-first rows per text; an
        unsorted list would only overcount, which keeps the bound
        sound.  Only the surviving texts' rows are sorted by
        ``(text, left)``, and the double sweep runs as flat event arrays
        over all of them at once.  Long-list
        refinement then gathers *all* surviving candidates and issues
        one grouped zone-map read over all long lists instead of one
        point read per candidate per list.
        """
        rows = np.concatenate([posting_rows(chunk) for chunk in short_chunks])
        texts = rows[:, 0]
        run_starts = np.empty(texts.size, dtype=bool)
        run_starts[0] = True
        np.not_equal(texts[1:], texts[:-1], out=run_starts[1:])
        run_starts[
            np.cumsum([chunk.size for chunk in short_chunks[:-1]], dtype=np.int64)
        ] = True
        all_texts, run_text, lists_per_text = np.unique(
            texts[run_starts], return_inverse=True, return_counts=True
        )
        num_groups = int(all_texts.size)
        alpha_eff = max(alpha_short, 1)
        keep = lists_per_text >= alpha_short
        if not keep.any():
            stats.groups_scanned += num_groups
            return []
        row_keep = keep[run_text[np.cumsum(run_starts) - 1]]
        kept, _, kept_sizes = _group_by_text(np.compress(row_keep, rows, axis=0))
        group_texts = all_texts[keep].astype(np.int64)
        group_ids = np.repeat(
            np.arange(kept_sizes.size, dtype=np.int64), kept_sizes
        )
        rect = fused_collision_count(
            kept[:, 1], kept[:, 2], kept[:, 3], group_ids, alpha_eff
        )
        cand_groups = np.unique(rect.group)

        stats.groups_scanned += num_groups
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
            parts += self._read_long_lists(long_funcs, sketch, cand_texts, stats)
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
    ) -> list[np.ndarray]:
        """The rows of ``text_ids`` in every long list, one read for all.

        ``point_reads`` still counts one per long list, so the counter
        means the same whatever the reader batches.
        """
        funcs = np.array(sorted(long_funcs), dtype=np.int64)
        stats.point_reads += int(funcs.size)
        fetched = self.index.load_texts_windows(funcs, sketch[funcs], text_ids)
        return [posting_rows(postings) for postings in fetched if postings.size]

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

    def _effective_cutoff(self, lengths: np.ndarray) -> int | None:
        """The long-list cutoff for one query, or ``None`` when disabled.

        For a configured cutoff this is the hoisted constant; only the
        default heuristic (8x the median of the query's own non-empty
        list lengths) depends on the query.
        """
        if self.long_list_cutoff == 0:
            return None
        if self._static_cutoff is not None:
            return self._static_cutoff
        positive = lengths[lengths > 0]
        if positive.size == 0:
            return None
        return max(64, 8 * int(np.median(positive)))

    def _select_long_lists(self, lengths: np.ndarray, beta: int) -> set[int]:
        """Pick which of the query's ``k`` lists to prefix-filter away.

        Correctness cap: with ``k - p`` long lists, the short-list
        collision threshold is ``beta - (k - p)``; it must stay ``>= 1``
        (a candidate must collide at least once among the short lists),
        so at most ``beta - 1`` lists may be long.  The longest lists
        are preferred.
        """
        cutoff = self._effective_cutoff(lengths)
        if cutoff is None:
            return set()
        candidates = np.flatnonzero(lengths > cutoff)
        max_long = max(0, beta - 1)
        if candidates.size > max_long:
            order = np.argsort(-lengths[candidates], kind="stable")
            candidates = candidates[order[:max_long]]
        return {int(func) for func in candidates}
