"""Tests for the Section 5 memorization evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.lm.models import train_model
from repro.memorization.evaluator import (
    evaluate_generated_texts,
    evaluate_model,
    sliding_queries,
)
from repro.memorization.report import (
    figure4_series,
    format_series_table,
    table1_rows,
)


class TestSlidingQueries:
    def test_non_overlapping_fixed_width(self):
        text = np.arange(100, dtype=np.uint32)
        queries = sliding_queries(text, 32)
        assert len(queries) == 3
        assert np.array_equal(queries[0], np.arange(0, 32))
        assert np.array_equal(queries[2], np.arange(64, 96))

    def test_trailing_partial_discarded(self):
        queries = sliding_queries(np.arange(33, dtype=np.uint32), 32)
        assert len(queries) == 1

    def test_text_shorter_than_width(self):
        assert sliding_queries(np.arange(10, dtype=np.uint32), 32) == []

    def test_paper_window_count_relation(self):
        """More than twice as many width-64 windows as width-128 windows
        can exist (the Figure 4(d) footnote effect)."""
        text = np.arange(130 + 64, dtype=np.uint32)
        assert len(sliding_queries(text, 64)) == 3
        assert len(sliding_queries(text, 128)) == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            sliding_queries(np.arange(5), 0)


@pytest.fixture(scope="module")
def memorization_setup():
    """Corpus + index + searcher for evaluation tests."""
    rng = np.random.default_rng(50)
    vocab = 300
    texts = [rng.integers(0, vocab, size=200).astype(np.uint32) for _ in range(40)]
    corpus = InMemoryCorpus(texts)
    family = HashFamily(k=16, seed=20)
    index = build_memory_index(corpus, family, t=25, vocab_size=vocab)
    return corpus, NearDuplicateSearcher(index)


class TestEvaluateGeneratedTexts:
    def test_verbatim_copy_is_memorized(self, memorization_setup):
        corpus, searcher = memorization_setup
        generated = [np.array(corpus[0][:96])]  # three width-32 queries, all verbatim
        report = evaluate_generated_texts(generated, searcher, 0.9, 32)
        assert report.num_queries == 3
        assert report.memorized_fraction == 1.0

    def test_random_text_not_memorized(self, memorization_setup):
        _, searcher = memorization_setup
        rng = np.random.default_rng(123)
        generated = [rng.integers(5000, 9000, size=96).astype(np.uint32)]
        report = evaluate_generated_texts(generated, searcher, 0.9, 32)
        assert report.memorized_fraction == 0.0

    def test_examples_recorded(self, memorization_setup):
        corpus, searcher = memorization_setup
        generated = [np.array(corpus[1][:64])]
        report = evaluate_generated_texts(generated, searcher, 0.9, 32)
        examples = report.examples()
        assert examples and examples[0].example is not None

    def test_outcome_metadata(self, memorization_setup):
        corpus, searcher = memorization_setup
        generated = [np.array(corpus[2][:64])]
        report = evaluate_generated_texts(generated, searcher, 0.9, 32)
        outcome = report.outcomes[1]
        assert outcome.generated_text == 0
        assert outcome.window_index == 1
        assert outcome.query.size == 32

    def test_empty_generated_list(self, memorization_setup):
        _, searcher = memorization_setup
        report = evaluate_generated_texts([], searcher, 0.9, 32)
        assert report.num_queries == 0
        assert report.memorized_fraction == 0.0

    def test_outcome_counts_every_matching_text(self):
        """A window planted in several corpus texts reports all of them,
        and its example is the first merged span of the full search."""
        rng = np.random.default_rng(51)
        vocab = 300
        passage = rng.integers(0, vocab, size=40).astype(np.uint32)
        texts = [rng.integers(0, vocab, size=150).astype(np.uint32) for _ in range(12)]
        for text_id, offset in ((2, 10), (5, 60), (9, 100)):
            texts[text_id][offset : offset + passage.size] = passage
        index = build_memory_index(
            InMemoryCorpus(texts), HashFamily(k=16, seed=21), t=25, vocab_size=vocab
        )
        searcher = NearDuplicateSearcher(index)
        report = evaluate_generated_texts([passage], searcher, 0.8, passage.size)
        expected = searcher.search(passage, 0.8)
        (outcome,) = report.outcomes
        assert expected.num_texts >= 3
        assert outcome.num_texts == expected.num_texts
        assert outcome.example == expected.merged_spans()[0]


class TestEvaluateModel:
    def test_end_to_end(self, memorization_setup):
        corpus, searcher = memorization_setup
        tier = train_model("large", corpus)
        report = evaluate_model(
            tier.model,
            searcher,
            theta=0.8,
            num_texts=2,
            text_length=96,
            window_width=32,
            model_name="large",
            seed=1,
        )
        assert report.num_queries == 6
        assert 0.0 <= report.memorized_fraction <= 1.0
        assert report.model_name == "large"

    def test_theta_monotonicity(self, memorization_setup):
        """Lower theta can only increase the memorized fraction (Figure 4)."""
        corpus, searcher = memorization_setup
        tier = train_model("xl", corpus)
        texts = [
            np.asarray(corpus[i][:96]) for i in range(3)
        ]  # verbatim-ish "generations"
        strict = evaluate_generated_texts(texts, searcher, 1.0, 32)
        loose = evaluate_generated_texts(texts, searcher, 0.7, 32)
        assert loose.memorized_fraction >= strict.memorized_fraction


class TestReporting:
    def test_figure4_series(self, memorization_setup):
        corpus, searcher = memorization_setup
        generated = [np.array(corpus[0][:64])]
        reports = [
            evaluate_generated_texts(generated, searcher, theta, 32, model_name="m")
            for theta in (0.8, 1.0)
        ]
        rows = figure4_series(reports)
        assert len(rows) == 2
        assert {row["theta"] for row in rows} == {0.8, 1.0}
        table = format_series_table(rows)
        assert "memorized%" in table and "m" in table

    def test_table1_rows(self, memorization_setup):
        corpus, searcher = memorization_setup
        generated = [np.array(corpus[0][:64])]
        report = evaluate_generated_texts(generated, searcher, 0.9, 32)
        rows = table1_rows(report, corpus, limit=3)
        assert rows
        row = rows[0]
        assert row.match_tokens.size == row.match_end - row.match_start + 1
        rendered = row.render()
        assert "near-duplicate" in rendered

    def test_table1_render_with_tokenizer(self, memorization_setup):
        corpus, searcher = memorization_setup

        class FakeTokenizer:
            def decode(self, ids):
                return "<" + ",".join(str(int(i)) for i in ids) + ">"

        generated = [np.array(corpus[0][:64])]
        report = evaluate_generated_texts(generated, searcher, 0.9, 32)
        rows = table1_rows(report, corpus)
        assert "<" in rows[0].render(FakeTokenizer())
