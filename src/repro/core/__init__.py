"""Core algorithms of the paper: hashing, compact windows, search.

The public surface re-exported here is the paper's primary
contribution: min-hash families (:class:`HashFamily`), valid
compact-window generation (Algorithm 2), interval-based collision
counting (Algorithms 4–5), the query processor (Algorithm 3) and the
closed-form analysis of Section 3.
"""

from repro.core.compact_windows import (
    CompactWindow,
    WINDOW_DTYPE,
    chunk_layout,
    generate_chunk_windows,
    generate_compact_windows_kwide,
    generate_compact_windows_stack,
)
from repro.core.hashing import HashFamily
from repro.core.intervals import (
    CollisionRectangle,
    FusedRectangles,
    ScanResult,
    collision_count,
    fused_collision_count,
    interval_scan,
)
from repro.core.multiset import (
    MultisetVerifier,
    estimate_multiset_jaccard,
    expand_multiset,
    multiset_sketch,
    search_definition2_multiset,
)
from repro.core.search import (
    BatchPlan,
    NearDuplicateSearcher,
    QueryStats,
    SearchResult,
    TextMatch,
    query_key,
)
from repro.core.theory import (
    collision_threshold,
    estimator_variance_bound,
    expected_window_count,
    index_size_ratio_bound,
    recall_estimate,
)
from repro.core.verify import (
    Span,
    distinct_jaccard,
    estimate_jaccard,
    merge_overlapping_spans,
    multiset_jaccard,
    verify_spans,
)

__all__ = [
    "BatchPlan",
    "CollisionRectangle",
    "CompactWindow",
    "FusedRectangles",
    "HashFamily",
    "MultisetVerifier",
    "NearDuplicateSearcher",
    "QueryStats",
    "ScanResult",
    "SearchResult",
    "Span",
    "TextMatch",
    "WINDOW_DTYPE",
    "chunk_layout",
    "collision_count",
    "collision_threshold",
    "distinct_jaccard",
    "estimate_jaccard",
    "estimate_multiset_jaccard",
    "estimator_variance_bound",
    "expand_multiset",
    "expected_window_count",
    "fused_collision_count",
    "generate_chunk_windows",
    "generate_compact_windows_kwide",
    "generate_compact_windows_stack",
    "index_size_ratio_bound",
    "interval_scan",
    "merge_overlapping_spans",
    "multiset_jaccard",
    "multiset_sketch",
    "query_key",
    "recall_estimate",
    "search_definition2_multiset",
    "verify_spans",
]
