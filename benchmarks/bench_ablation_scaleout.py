"""Ablation: scale-out structures — sharding.

A sharded index answers identically to the monolithic one while
bounding per-shard memory (the multi-machine growth path the paper's
parallel-build section gestures at).  Appends without a rebuild are the
live index's job; ``benchmarks/harness`` measures them
(``live_ingest_query``).
"""

from __future__ import annotations

import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.index.builder import build_memory_index
from repro.index.sharded import ShardedIndex, ShardedSearcher

from bench_fig3_query import run_queries
from conftest import VOCAB_LARGE, print_series


@pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
def test_sharded_query_overhead(
    benchmark, base_corpus, generated_queries, num_shards
):
    family = HashFamily(k=16, seed=5)
    sharded = ShardedIndex.build(
        base_corpus.corpus, family, 25, num_shards=num_shards, vocab_size=VOCAB_LARGE
    )
    searcher = ShardedSearcher(sharded)
    summary = benchmark.pedantic(
        run_queries, args=(searcher, generated_queries, 0.8), rounds=1, iterations=1
    )
    total = summary["io_ms"] + summary["cpu_ms"]
    benchmark.extra_info["total_ms"] = round(total, 3)
    print_series(
        f"Sharding shards={num_shards}",
        ["shards", "total_ms", "avg_matches"],
        [(num_shards, total, summary["found"])],
    )


def test_sharded_answers_match_monolithic(benchmark, base_corpus, generated_queries):
    family = HashFamily(k=16, seed=5)
    mono = build_memory_index(base_corpus.corpus, family, 25, vocab_size=VOCAB_LARGE)
    sharded = ShardedIndex.build(
        base_corpus.corpus, family, 25, num_shards=4, vocab_size=VOCAB_LARGE
    )

    def compare():
        plain = NearDuplicateSearcher(mono)
        fanout = ShardedSearcher(sharded)
        for query in generated_queries:
            a = plain.search(query, 0.8)
            b = fanout.search(query, 0.8)
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
