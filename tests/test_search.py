"""Unit tests for the query processor (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.core.theory import collision_threshold
from repro.corpus.corpus import InMemoryCorpus
from repro.exceptions import InvalidParameterError, QueryError
from repro.index.builder import build_memory_index


@pytest.fixture(scope="module")
def engine():
    """Corpus where text 5 contains an exact copy of the query span."""
    rng = np.random.default_rng(77)
    vocab = 300
    texts = [rng.integers(0, vocab, size=120).astype(np.uint32) for _ in range(10)]
    query = np.array(texts[0][10:74])
    texts[5][20:84] = query  # exact planted copy
    corpus = InMemoryCorpus(texts)
    family = HashFamily(k=16, seed=13)
    index = build_memory_index(corpus, family, t=25, vocab_size=vocab)
    return corpus, index, query


class TestBasicSearch:
    def test_finds_planted_copy(self, engine):
        corpus, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.9)
        matched = {m.text_id for m in result.matches}
        assert {0, 5} <= matched

    def test_exact_duplicate_at_theta_one(self, engine):
        corpus, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 1.0)
        assert {m.text_id for m in result.matches} >= {0, 5}
        assert result.beta == index.family.k

    def test_result_metadata(self, engine):
        _, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.8)
        assert result.k == index.family.k
        assert result.theta == 0.8
        assert result.beta == collision_threshold(index.family.k, 0.8)
        assert result.t == index.t
        assert bool(result) == (result.num_texts > 0)

    def test_all_spans_long_enough(self, engine):
        _, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.8)
        for match in result.matches:
            for span in match.spans(index.t):
                assert span.length >= index.t

    def test_lower_theta_finds_no_fewer(self, engine):
        _, index, query = engine
        high = NearDuplicateSearcher(index).search(query, 0.95)
        low = NearDuplicateSearcher(index).search(query, 0.6)
        assert low.count_spans() >= high.count_spans()
        high_texts = {m.text_id for m in high.matches}
        low_texts = {m.text_id for m in low.matches}
        assert high_texts <= low_texts

    def test_empty_query_rejected(self, engine):
        _, index, _ = engine
        with pytest.raises(QueryError):
            NearDuplicateSearcher(index).search(np.array([], dtype=np.uint32), 0.8)

    def test_invalid_theta_rejected(self, engine):
        _, index, query = engine
        with pytest.raises(InvalidParameterError):
            NearDuplicateSearcher(index).search(query, 0.0)
        with pytest.raises(InvalidParameterError):
            NearDuplicateSearcher(index).search(query, 1.0001)

    def test_negative_cutoff_rejected(self, engine):
        _, index, _ = engine
        with pytest.raises(InvalidParameterError):
            NearDuplicateSearcher(index, long_list_cutoff=-1)

    def test_unrelated_query_finds_nothing(self, engine):
        _, index, _ = engine
        # Tokens far outside the corpus vocabulary cannot collide often.
        query = np.arange(10_000, 10_064, dtype=np.uint32)
        result = NearDuplicateSearcher(index).search(query, 0.9)
        assert result.num_texts == 0


class TestPrefixFiltering:
    def test_same_results_for_all_cutoffs(self, engine):
        """Prefix filtering must not change the answer (Theorem 2)."""
        _, index, query = engine
        baseline = None
        for cutoff in (0, 1, 16, 1 << 30, None):
            result = NearDuplicateSearcher(index, long_list_cutoff=cutoff).search(
                query, 0.7
            )
            spans = {
                (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
                for m in result.matches
                for r in m.rectangles
            }
            if baseline is None:
                baseline = spans
            else:
                assert spans == baseline

    def test_long_list_cap_respects_beta(self, engine):
        """At most beta - 1 lists may be filtered (else completeness breaks)."""
        _, index, query = engine
        searcher = NearDuplicateSearcher(index, long_list_cutoff=0)
        result = searcher.search(query, 0.8)
        assert result.stats.long_lists == 0
        aggressive = NearDuplicateSearcher(index, long_list_cutoff=1)
        result = aggressive.search(query, 0.8)
        assert result.stats.long_lists <= result.beta - 1

    def test_aggressive_cutoff_reduces_io(self, engine):
        _, index, query = engine
        index.io_stats.reset()
        full = NearDuplicateSearcher(index, long_list_cutoff=0).search(query, 0.7)
        filtered = NearDuplicateSearcher(index, long_list_cutoff=16).search(query, 0.7)
        assert filtered.stats.io_bytes <= full.stats.io_bytes


class TestStats:
    def test_stats_accounting(self, engine):
        _, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.8)
        stats = result.stats
        assert stats.total_seconds > 0
        assert stats.cpu_seconds >= 0
        assert stats.lists_loaded <= index.family.k
        assert stats.texts_matched == result.num_texts
        assert stats.io_bytes > 0

    def test_groups_scanned_counts_candidate_texts(self, engine):
        _, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.8)
        assert result.stats.groups_scanned >= result.stats.candidates
        assert result.stats.candidates >= result.num_texts


class TestResultShaping:
    def test_merged_spans_disjoint(self, engine):
        _, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.7)
        spans = result.merged_spans()
        by_text: dict[int, list] = {}
        for span in spans:
            by_text.setdefault(span.text_id, []).append(span)
        for group in by_text.values():
            ordered = sorted(group, key=lambda s: s.start)
            for a, b in zip(ordered, ordered[1:]):
                assert a.end < b.start

    def test_widest_spans_subset_of_spans(self, engine):
        _, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.8)
        for match in result.matches:
            all_spans = set(
                (s.start, s.end) for s in match.spans(index.t)
            )
            for widest in match.widest_spans(index.t):
                assert (widest.start, widest.end) in all_spans

    def test_best_count_within_range(self, engine):
        _, index, query = engine
        result = NearDuplicateSearcher(index).search(query, 0.8)
        for match in result.matches:
            assert result.beta <= match.best_count() <= result.k
