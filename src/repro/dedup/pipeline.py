"""Corpus-wide near-duplicate discovery and deduplication.

The paper's motivation (Section 1) leans on Lee et al.: training
corpora are full of near-duplicate sequences, duplication drives
memorization super-linearly, and deduplication mitigates it.  This
pipeline turns the paper's *query* primitive into a *self-join* over
the corpus:

1. slice every text into probe windows of width ``w`` and stride ``s``;
2. run near-duplicate search for each probe against the corpus index;
3. cluster the discovered occurrences with union-find;
4. emit a :class:`DedupReport`: clusters, redundancy mass, and the
   disjoint spans a cleaner would drop.

The probe windows make this a bounded approximation of the full
all-pairs self-join (a probe only discovers duplicates of ``>= theta``
similarity that overlap one of its windows), which is the same
windowing compromise the paper's Section 5 evaluation makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.search import NearDuplicateSearcher
from repro.core.verify import Span, merge_overlapping_spans
from repro.corpus.corpus import Corpus
from repro.dedup.clusters import DuplicateCluster, build_clusters
from repro.exceptions import InvalidParameterError


@dataclass
class DedupReport:
    """Outcome of one corpus deduplication pass."""

    theta: float
    window: int
    stride: int
    probes: int = 0
    clusters: list[DuplicateCluster] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def duplicated_spans(self) -> int:
        return sum(cluster.size for cluster in self.clusters)

    @property
    def redundant_tokens(self) -> int:
        """Tokens a cleaner would remove (sum over non-representatives)."""
        return sum(
            span.length for cluster in self.clusters for span in cluster.redundant()
        )

    def drop_list(self) -> list[Span]:
        """Disjoint spans to delete, merged per text."""
        redundant = [
            span for cluster in self.clusters for span in cluster.redundant()
        ]
        if not redundant:
            return []
        return merge_overlapping_spans(redundant)


def find_duplicate_clusters(
    corpus: Corpus,
    searcher: NearDuplicateSearcher,
    *,
    theta: float = 0.8,
    window: int = 64,
    stride: int | None = None,
    max_probes: int | None = None,
    batch_size: int | None = 512,
) -> DedupReport:
    """Discover near-duplicate clusters via a windowed self-join.

    Parameters
    ----------
    corpus:
        The corpus behind ``searcher``'s index.
    searcher:
        A searcher over that corpus.
    theta:
        Similarity threshold of the self-join.
    window:
        Probe width in tokens (must be >= the index's ``t``).
    stride:
        Probe stride; defaults to ``window`` (non-overlapping probes).
    max_probes:
        Optional cap for sampled deduplication of large corpora.
    batch_size:
        Probes searched per planned executor batch (bounds planning
        memory).  The self-join is a natural batch workload —
        neighbouring probes of one text share most of their Zipf-head
        lists.
    """
    if window < searcher.t:
        raise InvalidParameterError(
            f"window ({window}) must be >= the index length threshold ({searcher.t})"
        )
    if stride is None:
        stride = window
    if stride < 1:
        raise InvalidParameterError(f"stride must be >= 1, got {stride}")
    begin = time.perf_counter()
    report = DedupReport(theta=theta, window=window, stride=stride)

    probe_spans: list[Span] = []
    probe_queries: list[np.ndarray] = []
    done = False
    for text_id in range(len(corpus)):
        if done:
            break
        text = np.asarray(corpus[text_id])
        for start in range(0, max(0, text.size - window + 1), stride):
            if max_probes is not None and report.probes >= max_probes:
                done = True
                break
            report.probes += 1
            probe_spans.append(Span(text_id, start, start + window - 1))
            probe_queries.append(text[start : start + window])

    results = searcher.search_many(probe_queries, theta, batch_size=batch_size)

    spans: list[Span] = []
    span_ids: dict[tuple[int, int, int], int] = {}
    pairs: list[tuple[int, int]] = []

    def intern(span: Span) -> int:
        key = (span.text_id, span.start, span.end)
        if key not in span_ids:
            span_ids[key] = len(spans)
            spans.append(span)
        return span_ids[key]

    for probe_span, result in zip(probe_spans, results):
        probe_id = None
        for merged in result.merged_spans():
            # Skip the probe's own (overlapping) occurrence.
            if merged.text_id == probe_span.text_id and not (
                merged.end < probe_span.start or merged.start > probe_span.end
            ):
                continue
            if probe_id is None:
                probe_id = intern(probe_span)
            pairs.append((probe_id, intern(merged)))

    report.clusters = build_clusters(spans, pairs)
    report.seconds = time.perf_counter() - begin
    return report


def deduplicate(
    corpus: Corpus,
    report: DedupReport,
) -> list[np.ndarray]:
    """Materialize the cleaned corpus: drop the report's redundant spans.

    Returns new token arrays with the drop-list spans excised.  Texts
    without redundant spans are returned as-is (same array object), so
    the caller can tell what changed.
    """
    drops: dict[int, list[Span]] = {}
    for span in report.drop_list():
        drops.setdefault(span.text_id, []).append(span)
    cleaned: list[np.ndarray] = []
    for text_id in range(len(corpus)):
        text = np.asarray(corpus[text_id])
        if text_id not in drops:
            cleaned.append(text)
            continue
        keep = np.ones(text.size, dtype=bool)
        for span in drops[text_id]:
            keep[span.start : span.end + 1] = False
        cleaned.append(text[keep])
    return cleaned
