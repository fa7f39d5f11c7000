"""Aggregated observability for batch query execution.

One :class:`BatchStats` sums the per-query
:class:`~repro.core.search.QueryStats` counter columns of a whole
batch's :class:`~repro.core.search.BatchAnswer` and adds the batch-only
dimensions: sketch-dedup savings, distinct-list I/O sharing
and cache counters.  The CLI prints it verbatim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.search import COUNTERS, BatchAnswer, SearchResult


@dataclass
class BatchStats:
    """Merged accounting of one executed query batch."""

    queries: int = 0
    unique_queries: int = 0
    #: Total (func, hash) list references across all queries (non-empty
    #: lists only) vs. the number of distinct lists actually needed.
    lists_referenced: int = 0
    distinct_lists: int = 0
    # Stage wall times.
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0
    # Merged QueryStats (duplicates in the batch are counted once —
    # their search ran once).
    io_bytes: int = 0
    io_calls: int = 0
    io_seconds: float = 0.0
    cpu_seconds: float = 0.0
    lists_loaded: int = 0
    #: Zone-map point-read operations issued for long-list refinement
    #: (one per batched ``load_texts_windows`` call on the fused path).
    point_reads: int = 0
    candidates: int = 0
    texts_matched: int = 0
    # Cache counters summed over every reader the batch used.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Lists the cache turned away: larger than the whole budget.
    cache_admission_rejections: int = 0
    #: Cold misses that piggybacked on another thread's in-flight load
    #: instead of reading the list themselves.
    cache_singleflight_waits: int = 0

    # ------------------------------------------------------------------
    @property
    def duplicate_queries(self) -> int:
        """Queries answered for free because their sketch already ran."""
        return self.queries - self.unique_queries

    @property
    def queries_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.queries / self.total_seconds

    @property
    def list_dedup_ratio(self) -> float:
        """References per distinct list (>= 1; higher = more sharing)."""
        if self.distinct_lists == 0:
            return 1.0
        return self.lists_referenced / self.distinct_lists

    # ------------------------------------------------------------------
    @classmethod
    def from_answer(cls, answer: BatchAnswer, **batch) -> "BatchStats":
        """One scanned batch's stats plus the batch-only ``batch`` fields:
        each counter column of ``answer`` sums into the same-named field
        (so a new :class:`~repro.core.search.QueryStats` counter flows in
        by name), its I/O and cpu seconds too; wall time is the caller's."""
        names = {spec.name for spec in dataclasses.fields(cls)}
        sums = zip(COUNTERS, answer.counters.sum(axis=0).tolist())
        total, io = answer.seconds.T
        return cls(
            io_seconds=float(io.sum()),
            cpu_seconds=float(np.maximum(total - io, 0.0).sum()),
            **{name: value for name, value in sums if name in names},
            **batch,
        )

    def merge(self, other: "BatchStats") -> None:
        """Fold another chunk's stats in (chunked ``batch_size`` runs).

        Every counter and time is summed by walking the dataclass
        fields, so a counter added later cannot be silently dropped.
        """
        for spec in dataclasses.fields(self):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        lines = [
            f"batch: {self.queries} queries "
            f"({self.unique_queries} unique, {self.duplicate_queries} deduped)",
            f"lists: {self.lists_referenced} referenced, "
            f"{self.distinct_lists} distinct "
            f"({self.list_dedup_ratio:.2f}x shared), "
            f"{self.lists_loaded} loaded",
            f"io: {self.io_bytes} bytes in {self.io_calls} calls "
            f"({1e3 * self.io_seconds:.1f} ms), "
            f"{self.point_reads} point reads",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses / "
            f"{self.cache_evictions} evictions "
            f"({self.cache_admission_rejections} rejected, "
            f"{self.cache_singleflight_waits} coalesced)",
            f"time: plan {1e3 * self.plan_seconds:.1f} ms, "
            f"execute {1e3 * self.execute_seconds:.1f} ms, "
            f"total {1e3 * self.total_seconds:.1f} ms "
            f"({self.queries_per_second:.0f} q/s)",
            f"matches: {self.texts_matched} texts over {self.candidates} candidates",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


@dataclass
class BatchResult:
    """Output of one batch execution: per-query results, input order."""

    results: list[SearchResult] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, position: int) -> SearchResult:
        return self.results[position]

    @property
    def num_matched(self) -> int:
        """Queries with at least one near-duplicate (the Section 5 numerator)."""
        return sum(1 for result in self.results if result.matches)
