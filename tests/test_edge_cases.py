"""Systematic boundary-condition coverage across the whole engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bruteforce import search_definition2
from repro.core.compact_windows import generate_compact_windows_stack
from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.index.builder import build_memory_index
from window_oracle import generate_compact_windows


def result_spans(result):
    return {
        (m.text_id, i, j)
        for m in result.matches
        for rect in m.rectangles
        for (i, j) in rect.iter_spans(result.t)
    }


def oracle_spans(corpus, query, theta, t, family):
    return {
        (s.text_id, s.start, s.end)
        for s in search_definition2(corpus, query, theta, t, family)
    }


class TestDegenerateCorpora:
    def test_single_token_texts(self):
        corpus = InMemoryCorpus([[3], [3], [7]])
        family = HashFamily(k=4, seed=1)
        index = build_memory_index(corpus, family, t=1, vocab_size=8)
        result = NearDuplicateSearcher(index).search(np.array([3]), 1.0)
        assert {m.text_id for m in result.matches} == {0, 1}

    def test_vocabulary_of_one(self):
        corpus = InMemoryCorpus([[0] * 20, [0] * 15])
        family = HashFamily(k=4, seed=2)
        index = build_memory_index(corpus, family, t=5, vocab_size=1)
        query = np.zeros(10, dtype=np.uint32)
        got = result_spans(NearDuplicateSearcher(index).search(query, 1.0))
        expected = oracle_spans(corpus, query, 1.0, 5, family)
        assert got == expected
        assert got  # every span matches: same single token everywhere

    def test_text_exactly_length_t(self):
        corpus = InMemoryCorpus([[1, 2, 3, 4, 5]])
        family = HashFamily(k=4, seed=3)
        index = build_memory_index(corpus, family, t=5, vocab_size=8)
        assert index.num_postings == 4  # exactly one window per function
        result = NearDuplicateSearcher(index).search(
            np.array([1, 2, 3, 4, 5], dtype=np.uint32), 1.0
        )
        assert (0, 0, 4) in result_spans(result)

    def test_text_one_shorter_than_t(self):
        corpus = InMemoryCorpus([[1, 2, 3, 4]])
        family = HashFamily(k=4, seed=3)
        index = build_memory_index(corpus, family, t=5, vocab_size=8)
        assert index.num_postings == 0

    def test_large_token_ids(self):
        top = 2**31
        corpus = InMemoryCorpus([np.arange(top - 30, top, dtype=np.uint32)])
        family = HashFamily(k=4, seed=4)
        index = build_memory_index(corpus, family, t=10, vocab_size=top)
        query = np.arange(top - 30, top - 10, dtype=np.uint32)
        result = NearDuplicateSearcher(index).search(query, 1.0)
        assert result.num_texts == 1


class TestDegenerateParameters:
    def test_k_equals_one(self):
        rng = np.random.default_rng(0)
        corpus = InMemoryCorpus(
            [rng.integers(0, 30, size=40).astype(np.uint32) for _ in range(5)]
        )
        family = HashFamily(k=1, seed=5)
        index = build_memory_index(corpus, family, t=5, vocab_size=30)
        query = rng.integers(0, 30, size=15).astype(np.uint32)
        for theta in (0.5, 1.0):
            got = result_spans(NearDuplicateSearcher(index).search(query, theta))
            assert got == oracle_spans(corpus, query, theta, 5, family)

    def test_t_equals_one(self):
        rng = np.random.default_rng(1)
        corpus = InMemoryCorpus(
            [rng.integers(0, 10, size=20).astype(np.uint32) for _ in range(3)]
        )
        family = HashFamily(k=4, seed=6)
        index = build_memory_index(corpus, family, t=1, vocab_size=10)
        query = rng.integers(0, 10, size=6).astype(np.uint32)
        got = result_spans(NearDuplicateSearcher(index).search(query, 1.0))
        assert got == oracle_spans(corpus, query, 1.0, 1, family)

    def test_tiny_theta(self):
        """theta just above zero -> beta = 1 -> one collision suffices."""
        rng = np.random.default_rng(2)
        corpus = InMemoryCorpus(
            [rng.integers(0, 40, size=30).astype(np.uint32) for _ in range(4)]
        )
        family = HashFamily(k=8, seed=7)
        index = build_memory_index(corpus, family, t=4, vocab_size=40)
        query = rng.integers(0, 40, size=10).astype(np.uint32)
        got = result_spans(NearDuplicateSearcher(index).search(query, 0.01))
        assert got == oracle_spans(corpus, query, 0.01, 4, family)

    def test_query_shorter_than_t(self):
        """Legal: the query can be short; only *results* must be >= t."""
        rng = np.random.default_rng(3)
        corpus = InMemoryCorpus(
            [rng.integers(0, 20, size=40).astype(np.uint32) for _ in range(3)]
        )
        family = HashFamily(k=6, seed=8)
        t = 10
        index = build_memory_index(corpus, family, t=t, vocab_size=20)
        query = rng.integers(0, 20, size=4).astype(np.uint32)  # shorter than t
        result = NearDuplicateSearcher(index).search(query, 0.3)
        got = result_spans(result)
        assert got == oracle_spans(corpus, query, 0.3, t, family)
        for _, i, j in got:
            assert j - i + 1 >= t

    def test_single_token_query(self):
        rng = np.random.default_rng(4)
        corpus = InMemoryCorpus(
            [rng.integers(0, 15, size=25).astype(np.uint32) for _ in range(3)]
        )
        family = HashFamily(k=4, seed=9)
        index = build_memory_index(corpus, family, t=3, vocab_size=15)
        query = np.array([7], dtype=np.uint32)
        got = result_spans(NearDuplicateSearcher(index).search(query, 0.25))
        assert got == oracle_spans(corpus, query, 0.25, 3, family)


class TestAdversarialHashPatterns:
    def test_sorted_token_text(self):
        """Monotone token ids produce a maximally skewed recursion tree."""
        corpus = InMemoryCorpus([np.arange(200, dtype=np.uint32)])
        family = HashFamily(k=4, seed=10)
        index = build_memory_index(corpus, family, t=50, vocab_size=200)
        query = np.arange(0, 60, dtype=np.uint32)
        got = result_spans(NearDuplicateSearcher(index).search(query, 0.8))
        assert got == oracle_spans(corpus, query, 0.8, 50, family)

    def test_alternating_two_tokens(self):
        corpus = InMemoryCorpus([np.tile([0, 1], 30).astype(np.uint32)])
        family = HashFamily(k=6, seed=11)
        index = build_memory_index(corpus, family, t=8, vocab_size=2)
        query = np.tile([0, 1], 10).astype(np.uint32)
        got = result_spans(NearDuplicateSearcher(index).search(query, 1.0))
        assert got == oracle_spans(corpus, query, 1.0, 8, family)

    def test_palindrome_text(self):
        half = np.arange(30, dtype=np.uint32)
        text = np.concatenate([half, half[::-1]])
        corpus = InMemoryCorpus([text])
        family = HashFamily(k=4, seed=12)
        index = build_memory_index(corpus, family, t=10, vocab_size=30)
        query = text[10:40]
        got = result_spans(NearDuplicateSearcher(index).search(query, 0.9))
        assert got == oracle_spans(corpus, query, 0.9, 10, family)


class TestWindowGeneratorBoundaries:
    def test_t_equals_text_length(self):
        hashes = np.array([5, 2, 8, 1, 9], dtype=np.uint32)
        windows = generate_compact_windows(hashes, 5)
        assert len(windows) == 1
        assert (windows[0].left, windows[0].right) == (0, 4)

    def test_t_larger_than_text(self):
        hashes = np.array([5, 2, 8], dtype=np.uint32)
        assert generate_compact_windows(hashes, 4) == []
        assert generate_compact_windows_stack(hashes, 4).size == 0

    def test_two_equal_minima_at_ends(self):
        hashes = np.array([0, 5, 5, 5, 0], dtype=np.uint32)
        windows = {
            (w.left, w.center, w.right) for w in generate_compact_windows(hashes, 1)
        }
        stack = {
            (int(r["left"]), int(r["center"]), int(r["right"]))
            for r in generate_compact_windows_stack(hashes, 1)
        }
        assert windows == stack
        assert (0, 0, 4) in windows  # leftmost minimum is the root
