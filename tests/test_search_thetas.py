"""Tests for the single-pass multi-threshold search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.synthetic import synthweb
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index


@pytest.fixture(scope="module")
def engine():
    data = synthweb(num_texts=120, mean_length=120, vocab_size=512, seed=41)
    family = HashFamily(k=16, seed=7)
    index = build_memory_index(data.corpus, family, t=20, vocab_size=512)
    return data.corpus, NearDuplicateSearcher(index)


def as_set(result):
    return {
        (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
        for m in result.matches
        for r in m.rectangles
    }


class TestSearchThetas:
    def test_matches_individual_searches(self, engine):
        corpus, searcher = engine
        thetas = [0.5, 0.7, 0.9, 1.0]
        for text_id in (0, 3, 7):
            query = np.asarray(corpus[text_id])[:40]
            combined = searcher.search_thetas(query, thetas)
            for theta in thetas:
                single = searcher.search(query, theta)
                assert as_set(combined[theta]) == as_set(single), theta

    def test_metadata_per_theta(self, engine):
        corpus, searcher = engine
        results = searcher.search_thetas(np.asarray(corpus[0])[:40], [0.6, 0.9])
        assert results[0.6].theta == 0.6
        assert results[0.9].theta == 0.9
        assert results[0.9].beta > results[0.6].beta
        assert results[0.6].t == results[0.9].t == searcher.t

    def test_nested_results(self, engine):
        """Stricter thresholds return subsets."""
        corpus, searcher = engine
        results = searcher.search_thetas(
            np.asarray(corpus[2])[:40], [0.5, 0.8, 1.0]
        )
        pairs_05 = {
            (m.text_id, i, j)
            for m in results[0.5].matches
            for r in m.rectangles
            for (i, j) in r.iter_spans(searcher.t)
        }
        pairs_10 = {
            (m.text_id, i, j)
            for m in results[1.0].matches
            for r in m.rectangles
            for (i, j) in r.iter_spans(searcher.t)
        }
        assert pairs_10 <= pairs_05

    def test_single_theta(self, engine):
        corpus, searcher = engine
        query = np.asarray(corpus[1])[:40]
        combined = searcher.search_thetas(query, [0.8])
        assert as_set(combined[0.8]) == as_set(searcher.search(query, 0.8))

    def test_empty_thetas_rejected(self, engine):
        _, searcher = engine
        with pytest.raises(InvalidParameterError):
            searcher.search_thetas(np.array([1], dtype=np.uint32), [])

    def test_stats_shared_single_pass(self, engine):
        """All thetas report the same (single-pass) I/O accounting."""
        corpus, searcher = engine
        results = searcher.search_thetas(np.asarray(corpus[4])[:40], [0.5, 1.0])
        assert results[0.5].stats.io_bytes == results[1.0].stats.io_bytes
        assert results[0.5].stats.groups_scanned == results[1.0].stats.groups_scanned

    def test_with_prefix_filtering(self, engine):
        corpus, _ = engine
        family = HashFamily(k=16, seed=7)
        index = build_memory_index(corpus, family, t=20, vocab_size=512)
        aggressive = NearDuplicateSearcher(index, long_list_cutoff=8)
        query = np.asarray(corpus[0])[:40]
        combined = aggressive.search_thetas(query, [0.5, 0.9])
        for theta in (0.5, 0.9):
            assert as_set(combined[theta]) == as_set(aggressive.search(query, theta))


class TestAnswerThresholds:
    """A batch answer is cut at its own threshold or a stricter one."""

    @pytest.fixture(scope="class")
    def small(self):
        data = synthweb(num_texts=60, mean_length=120, vocab_size=512, seed=41)
        index = build_memory_index(data.corpus, HashFamily(k=16, seed=7), t=20, vocab_size=512)
        searcher = NearDuplicateSearcher(index, corpus=data.corpus)
        return searcher, np.asarray(data.corpus[0])[:40]

    def test_looser_theta_is_refused(self, small):
        """The scan at 0.8 pruned a text a 0.5 answer holds: cutting
        0.5 from it would report 1 text where a search finds 2."""
        searcher, query = small
        assert searcher.search(query, 0.5).num_texts == 2
        answer = searcher._search_batch(searcher.plan([query], 0.8))
        with pytest.raises(InvalidParameterError, match="theta=0.5"):
            answer.results(0.5)
        assert answer.results(0.9)[0].theta == 0.9
        assert as_set(answer.results()[0]) == as_set(searcher.search(query, 0.8))

    def test_verified_answer_refuses_any_other_theta(self, small):
        searcher, query = small
        answer = searcher._search_batch(searcher.plan([query], 0.8, verify=True))
        for theta in (0.5, 0.9, 1.0):
            with pytest.raises(InvalidParameterError, match="verified"):
                answer.results(theta)
        (result,) = answer.results(0.8)
        assert as_set(result) == as_set(searcher.search(query, 0.8, verify=True))
