"""Tests for Kneser-Ney smoothing and the batch search API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.corpus.synthetic import zipf_corpus
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.lm.evaluation import corpus_perplexity
from repro.lm.ngram import NGramConfig, NGramLM


@pytest.fixture(scope="module")
def train_corpus():
    phrase = [1, 2, 3, 4, 5, 6]
    rng = np.random.default_rng(19)
    texts = []
    for _ in range(25):
        noise = rng.integers(0, 30, size=12).tolist()
        texts.append(np.array(phrase * 4 + noise, dtype=np.uint32))
    return InMemoryCorpus(texts)


class TestKneserNeyConfig:
    def test_smoothing_validated(self):
        with pytest.raises(InvalidParameterError):
            NGramConfig(order=3, smoothing="laplace")
        with pytest.raises(InvalidParameterError):
            NGramConfig(order=3, smoothing="kneser_ney", discount=0.0)
        with pytest.raises(InvalidParameterError):
            NGramConfig(order=3, smoothing="kneser_ney", discount=1.0)


class TestKneserNeyDistribution:
    def test_normalized(self, train_corpus):
        model = NGramLM(
            NGramConfig(order=3, smoothing="kneser_ney"), 30
        ).fit(train_corpus)
        for context in ([], [1], [1, 2], [29, 29]):
            probs = model.next_token_distribution(context)
            assert float(probs.sum()) == pytest.approx(1.0)
            assert probs.min() > 0.0

    def test_learned_continuation_dominates(self, train_corpus):
        model = NGramLM(
            NGramConfig(order=4, smoothing="kneser_ney"), 30
        ).fit(train_corpus)
        probs = model.next_token_distribution([1, 2, 3])
        assert int(np.argmax(probs)) == 4

    def test_discount_flattens(self, train_corpus):
        """A larger discount moves mass from seen events to the backoff."""
        sharp = NGramLM(
            NGramConfig(order=3, smoothing="kneser_ney", discount=0.1), 30
        ).fit(train_corpus)
        flat = NGramLM(
            NGramConfig(order=3, smoothing="kneser_ney", discount=0.9), 30
        ).fit(train_corpus)
        peak_sharp = float(sharp.next_token_distribution([1, 2]).max())
        peak_flat = float(flat.next_token_distribution([1, 2]).max())
        assert peak_sharp > peak_flat

    def test_kn_beats_fixed_interpolation_on_train(self, train_corpus):
        """On structured data KN yields competitive (lower or similar)
        perplexity vs a fixed-weight interpolation."""
        kn = NGramLM(NGramConfig(order=4, smoothing="kneser_ney"), 30).fit(
            train_corpus
        )
        fixed = NGramLM(
            NGramConfig(order=4, smoothing="interpolated", interpolation=0.5), 30
        ).fit(train_corpus)
        ppl_kn = corpus_perplexity(kn, train_corpus, max_texts=6)
        ppl_fixed = corpus_perplexity(fixed, train_corpus, max_texts=6)
        assert ppl_kn <= ppl_fixed * 1.2

    def test_generation_works(self, train_corpus):
        from repro.lm.generation import GenerationConfig, generate

        model = NGramLM(
            NGramConfig(order=3, smoothing="kneser_ney"), 30
        ).fit(train_corpus)
        out = generate(model, 20, config=GenerationConfig(strategy="greedy"))
        assert out.size == 20


class TestSearchMany:
    @pytest.fixture(scope="class")
    def engine(self):
        corpus = zipf_corpus(60, mean_length=80, vocab_size=256, seed=9)
        family = HashFamily(k=8, seed=4)
        index = build_memory_index(corpus, family, t=10, vocab_size=256)
        return corpus, NearDuplicateSearcher(index)

    def test_matches_individual_searches(self, engine):
        corpus, searcher = engine
        queries = [np.asarray(corpus[i])[:25] for i in range(4)]
        batch = searcher.search_many(queries, 0.8)
        assert len(batch) == 4
        for query, result in zip(queries, batch):
            single = searcher.search(query, 0.8)
            as_set = lambda res: {
                (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
                for m in res.matches
                for r in m.rectangles
            }
            assert as_set(result) == as_set(single)

    def test_empty_batch(self, engine):
        _, searcher = engine
        assert searcher.search_many([], 0.8) == []
