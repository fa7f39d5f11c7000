"""Tests for the sharded index and fan-out searcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.index.sharded import Shard, ShardedIndex, ShardedSearcher

VOCAB = 150


@pytest.fixture(scope="module")
def sharded_setup():
    rng = np.random.default_rng(6)
    texts = [rng.integers(0, VOCAB, size=60).astype(np.uint32) for _ in range(17)]
    texts[13][10:40] = texts[2][5:35]  # cross-shard duplicate
    corpus = InMemoryCorpus(texts)
    family = HashFamily(k=12, seed=7)
    single = build_memory_index(corpus, family, t=10, vocab_size=VOCAB)
    sharded = ShardedIndex.build(
        corpus, family, 10, num_shards=4, vocab_size=VOCAB
    )
    return corpus, family, single, sharded


class TestBuild:
    def test_shard_ranges_cover_corpus(self, sharded_setup):
        corpus, _, _, sharded = sharded_setup
        covered = sum(shard.count for shard in sharded.shards)
        assert covered == len(corpus)
        assert sharded.num_shards == 4

    def test_postings_preserved(self, sharded_setup):
        _, _, single, sharded = sharded_setup
        assert sharded.num_postings == single.num_postings

    def test_num_shards_validated(self, sharded_setup):
        corpus, family, _, _ = sharded_setup
        with pytest.raises(InvalidParameterError):
            ShardedIndex.build(corpus, family, 10, num_shards=0)

    def test_non_contiguous_rejected(self, sharded_setup):
        _, family, single, _ = sharded_setup
        with pytest.raises(InvalidParameterError):
            ShardedIndex([Shard(5, 3, single)], family, 10)

    def test_empty_shard_list_rejected(self, sharded_setup):
        _, family, _, _ = sharded_setup
        with pytest.raises(InvalidParameterError):
            ShardedIndex([], family, 10)

    def test_single_shard(self, sharded_setup):
        corpus, family, single, _ = sharded_setup
        one = ShardedIndex.build(corpus, family, 10, num_shards=1, vocab_size=VOCAB)
        assert one.num_shards == 1
        assert one.num_postings == single.num_postings

    def test_more_shards_than_texts(self):
        corpus = InMemoryCorpus([np.arange(30, dtype=np.uint32)])
        family = HashFamily(k=4, seed=1)
        sharded = ShardedIndex.build(corpus, family, 5, num_shards=8)
        assert sum(s.count for s in sharded.shards) == 1


class TestSearch:
    def test_matches_single_index(self, sharded_setup):
        corpus, family, single, sharded = sharded_setup
        plain = NearDuplicateSearcher(single)
        fanout = ShardedSearcher(sharded)
        for text_id in (0, 2, 13):
            query = np.asarray(corpus[text_id])[:30]
            for theta in (0.6, 0.9):
                a = plain.search(query, theta)
                b = fanout.search(query, theta)
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

    def test_cross_shard_duplicate_found(self, sharded_setup):
        corpus, _, _, sharded = sharded_setup
        fanout = ShardedSearcher(sharded)
        query = np.asarray(corpus[2])[5:35]
        result = fanout.search(query, 0.9)
        matched = {m.text_id for m in result.matches}
        assert {2, 13} <= matched  # texts 2 and 13 live in different shards

    def test_stats_aggregated(self, sharded_setup):
        corpus, _, _, sharded = sharded_setup
        fanout = ShardedSearcher(sharded)
        result = fanout.search(np.asarray(corpus[0])[:30], 0.8)
        assert result.stats.total_seconds > 0
        assert result.stats.texts_matched == result.num_texts

    def test_results_sorted_by_text(self, sharded_setup):
        corpus, _, _, sharded = sharded_setup
        fanout = ShardedSearcher(sharded)
        result = fanout.search(np.asarray(corpus[2])[5:35], 0.6)
        ids = [m.text_id for m in result.matches]
        assert ids == sorted(ids)
