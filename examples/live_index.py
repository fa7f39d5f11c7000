"""Operating the index as a living system: shards, appends, caching.

Production deployments of the paper's engine need more than a one-shot
build: corpora grow (the live index: WAL-backed appends over sealed
runs), outgrow one machine (sharding), and serve repeated queries
(list caching).  This example
exercises all three extensions on one workload and shows that every
configuration returns identical answers.

Run:  python examples/live_index.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import HashFamily, NearDuplicateSearcher, build_memory_index
from repro.corpus import InMemoryCorpus, synthweb
from repro.index import (
    CachedIndexReader,
    LiveIndex,
    ShardedIndex,
    ShardedSearcher,
)


def spans_of(result):
    return {
        (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
        for m in result.matches
        for r in m.rectangles
    }


def main() -> None:
    vocab = 4096
    data = synthweb(num_texts=600, mean_length=200, vocab_size=vocab, seed=13)
    initial = InMemoryCorpus([np.array(data.corpus[i]) for i in range(500)])
    arrivals = [np.array(data.corpus[i]) for i in range(500, 600)]
    family = HashFamily(k=32, seed=4)
    t = 25

    # Baseline: one monolithic index over the initial 500 texts.
    baseline = build_memory_index(initial, family, t, vocab_size=vocab)
    query = np.asarray(initial[0])[:64]
    reference = NearDuplicateSearcher(baseline).search(query, 0.8)
    print(f"baseline index: {baseline.num_postings:,} postings, "
          f"{reference.num_texts} matching texts for the probe query")

    # 1. Live index: seal the initial texts into an on-disk run, stream
    #    in 100 new texts, and query the union of run + memtable.
    with tempfile.TemporaryDirectory() as scratch:
        live = LiveIndex(
            Path(scratch) / "live", family=family, t=t, vocab_size=vocab
        )
        live.append_texts([np.asarray(text) for text in initial])
        live.seal()
        assert spans_of(live.searcher().search(query, 0.8)) == spans_of(reference)
        new_ids = live.append_texts(arrivals)
        searcher = live.searcher()
        grown = searcher.search(query, 0.8)
        print(f"\nlive: appended {len(new_ids)} texts "
              f"(ids {new_ids[0]}..{new_ids[-1]}) beside {len(live.runs)} "
              f"sealed run, {live.memtable_postings:,} memtable postings")
        assert spans_of(grown) >= spans_of(reference)

        # A query drawn from a newly-appended text finds it immediately.
        fresh = searcher.search(arrivals[0][:64], 1.0)
        assert any(m.text_id == new_ids[0] for m in fresh.matches)
        print("a query from the newest text matches it at theta=1.0")
        live.close()

    # 2. Sharding: the same corpus split 4 ways answers identically.
    sharded = ShardedIndex.build(initial, family, t, num_shards=4, vocab_size=vocab)
    fanout = ShardedSearcher(sharded).search(query, 0.8)
    assert spans_of(fanout) == spans_of(reference)
    print(f"\nsharded: {sharded.num_shards} shards, "
          f"{sharded.num_postings:,} postings total — identical answers")

    # 3. Caching: a repeated query workload stops doing I/O.
    cached = CachedIndexReader(baseline, capacity_bytes=32 << 20)
    searcher = NearDuplicateSearcher(cached)
    for _ in range(3):
        searcher.search(query, 0.8)
    print(f"\ncache after 3 identical queries: hit rate "
          f"{cached.hit_rate:.0%} ({cached.hits} hits / {cached.misses} misses)")
    assert spans_of(searcher.search(query, 0.8)) == spans_of(reference)
    print("cached answers identical to baseline")


if __name__ == "__main__":
    main()
