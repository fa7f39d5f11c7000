"""Tests for in-memory index construction (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compact_windows import generate_compact_windows_stack
from repro.core.hashing import HashFamily
from repro.core.theory import expected_window_count, index_size_ratio_bound
from repro.corpus.corpus import InMemoryCorpus, corpus_nbytes
from repro.exceptions import InvalidParameterError
from repro.index.builder import (
    BuildStats,
    build_and_write_index,
    build_memory_index,
    generate_corpus_postings,
)
from repro.index.storage import DiskInvertedIndex


class TestGenerateCorpusPostings:
    def test_postings_match_direct_generation(self, family, tiny_corpus):
        vocab_hashes = family.hash_vocabulary(50)
        batch = [(i, np.asarray(tiny_corpus[i])) for i in range(len(tiny_corpus))]
        per_func = generate_corpus_postings(batch, family, 5, vocab_hashes)
        assert len(per_func) == family.k
        for func, (minhashes, postings) in enumerate(per_func):
            # Re-derive for one text and compare.
            text0 = np.asarray(tiny_corpus[0])
            hashes = vocab_hashes[func][text0.astype(np.int64)]
            expected = generate_compact_windows_stack(hashes, 5)
            got = postings[postings["text"] == 0]
            assert got.size == expected.size
            assert np.array_equal(np.sort(got["center"]), np.sort(expected["center"]))
            # min-hash of each posting equals the hash of its center token.
            for rec, mh in zip(postings, minhashes):
                text = np.asarray(tiny_corpus[int(rec["text"])])
                assert vocab_hashes[func][int(text[int(rec["center"])])] == mh

    def test_empty_batch(self, family):
        vocab_hashes = family.hash_vocabulary(10)
        per_func = generate_corpus_postings([], family, 5, vocab_hashes)
        assert all(p.size == 0 for _, p in per_func)


class TestBuildMemoryIndex:
    def test_posting_count_near_expectation(self):
        """Total windows ~ k * sum over texts of 2(n+1)/(t+1) - 1."""
        rng = np.random.default_rng(11)
        lengths = [200] * 50
        corpus = InMemoryCorpus(
            [rng.integers(0, 10**6, size=n).astype(np.uint32) for n in lengths]
        )
        family = HashFamily(k=4, seed=9)
        t = 10
        index = build_memory_index(corpus, family, t)
        expected = family.k * sum(expected_window_count(n, t) for n in lengths)
        assert abs(index.num_postings - expected) < 0.1 * expected

    def test_index_size_ratio_bound_holds(self, planted_data, planted_index):
        """Figure 2 claim: per-function index size <= (8/t) * corpus size."""
        per_func_bytes = planted_index.nbytes / planted_index.family.k
        bound = index_size_ratio_bound(planted_index.t) * corpus_nbytes(
            planted_data.corpus
        )
        assert per_func_bytes <= bound * 1.1  # 10% slack for short-text effects

    def test_t_validated(self, family, tiny_corpus):
        with pytest.raises(InvalidParameterError):
            build_memory_index(tiny_corpus, family, t=0)

    def test_stats_populated(self, family, tiny_corpus):
        stats = BuildStats()
        index = build_memory_index(tiny_corpus, family, t=5, stats=stats)
        assert stats.windows_generated == index.num_postings
        assert stats.generation_seconds > 0
        assert len(stats.windows_per_func) == family.k
        assert sum(stats.windows_per_func) == index.num_postings
        assert stats.index_bytes == index.nbytes

    def test_vocab_size_inferred(self, family):
        corpus = InMemoryCorpus([[100, 5, 100, 7] * 5])
        index = build_memory_index(corpus, family, t=3)
        assert index.num_postings > 0

    def test_texts_shorter_than_t_skipped(self, family):
        corpus = InMemoryCorpus([[1, 2, 3], [4] * 30])
        index = build_memory_index(corpus, family, t=10)
        for func in range(family.k):
            for _, postings in index.iter_lists(func):
                assert np.all(postings["text"] == 1)

    def test_empty_corpus(self, family):
        index = build_memory_index(InMemoryCorpus([]), family, t=5, vocab_size=4)
        assert index.num_postings == 0

    def test_deterministic(self, family, tiny_corpus):
        a = build_memory_index(tiny_corpus, family, t=5)
        b = build_memory_index(tiny_corpus, family, t=5)
        assert a.num_postings == b.num_postings
        for func in range(family.k):
            lists_a = dict(a.iter_lists(func))
            lists_b = dict(b.iter_lists(func))
            assert lists_a.keys() == lists_b.keys()
            for key in lists_a:
                assert np.array_equal(lists_a[key], lists_b[key])


class TestBuildAndWrite:
    def test_produces_readable_index(self, family, tiny_corpus, tmp_path):
        stats = build_and_write_index(tiny_corpus, family, 5, tmp_path / "idx")
        disk = DiskInvertedIndex(tmp_path / "idx")
        assert disk.num_postings == stats.windows_generated
        assert stats.io_seconds > 0
        assert stats.bytes_written == disk.nbytes
        assert stats.total_seconds >= stats.generation_seconds

    def test_packed_reports_bytes_on_disk(self, family, tiny_corpus, tmp_path):
        """A packed build reports the compressed payload it wrote, not
        the raw 16-byte-per-posting size of the in-memory index."""
        out = tmp_path / "packed"
        stats = build_and_write_index(tiny_corpus, family, 5, out, codec="packed")
        assert stats.bytes_written == (out / "index.postings.bin").stat().st_size
        assert stats.bytes_written < stats.index_bytes
