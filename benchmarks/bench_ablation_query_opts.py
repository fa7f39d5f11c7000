"""Ablation: query-side optimizations beyond the paper's baseline engine.

Measures LRU list caching, an extension this reproduction adds on top
of the paper's Algorithm 3: repeat queries (the memorization workload
re-probes the Zipf-head lists constantly) skip I/O for cached lists,
while returning bit-identical answers.
"""

from __future__ import annotations

import pytest

from repro.core.search import NearDuplicateSearcher
from repro.index.cache import CachedIndexReader

from bench_fig3_query import run_queries
from conftest import print_series


def test_list_cache_hit_rate(benchmark, default_index, generated_queries):
    """Second pass over the query batch should be nearly I/O-free."""
    cached = CachedIndexReader(default_index, capacity_bytes=64 << 20)
    searcher = NearDuplicateSearcher(cached)

    def two_passes():
        run_queries(searcher, generated_queries, 0.8)
        first_pass_misses = cached.misses
        run_queries(searcher, generated_queries, 0.8)
        return first_pass_misses, cached.hits, cached.misses

    first_misses, hits, misses = benchmark.pedantic(
        two_passes, rounds=1, iterations=1
    )
    benchmark.extra_info["hit_rate"] = round(hits / max(hits + misses, 1), 3)
    print_series(
        "List cache",
        ["pass1_misses", "total_hits", "total_misses", "hit_rate"],
        [(first_misses, hits, misses, hits / max(hits + misses, 1))],
    )
    # Every list needed by pass 2 was already cached in pass 1.
    assert misses == first_misses


def test_cache_answers_identical(benchmark, default_index, generated_queries):
    plain = NearDuplicateSearcher(default_index)
    cached = NearDuplicateSearcher(CachedIndexReader(default_index))

    def compare():
        for query in generated_queries:
            a = plain.search(query, 0.8)
            b = cached.search(query, 0.8)
            sa = {
                (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
                for m in a.matches
                for r in m.rectangles
            }
            sb = {
                (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
                for m in b.matches
                for r in m.rectangles
            }
            assert sa == sb

    benchmark.pedantic(compare, rounds=1, iterations=1)
