"""Tests for the Figure-4 sweep runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.synthetic import synthweb
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.memorization.evaluator import evaluate_generated_texts
from repro.memorization.report import table1_rows
from repro.memorization.sweep import SweepConfig, SweepResult, run_figure4_sweep


@pytest.fixture(scope="module")
def sweep_setup():
    data = synthweb(num_texts=150, mean_length=120, vocab_size=512, seed=81)
    family = HashFamily(k=12, seed=6)
    index = build_memory_index(data.corpus, family, t=20, vocab_size=512)
    return data.corpus, NearDuplicateSearcher(index)


@pytest.fixture(scope="module")
def sweep_result(sweep_setup):
    corpus, searcher = sweep_setup
    config = SweepConfig(
        model_names=("small", "xl"),
        thetas=(1.0, 0.8),
        window_widths=(32, 64),
        num_texts=2,
        text_length=128,
        seed=5,
    )
    return run_figure4_sweep(corpus, searcher, config, vocab_size=512)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SweepConfig(model_names=())
        with pytest.raises(InvalidParameterError):
            SweepConfig(thetas=())
        with pytest.raises(InvalidParameterError):
            SweepConfig(num_texts=0)

    def test_defaults_match_paper(self):
        config = SweepConfig()
        assert config.model_names == ("small", "medium", "large", "xl")
        assert 0.8 in config.thetas and 1.0 in config.thetas
        assert config.window_widths == (32, 64, 128)


class TestSweep:
    def test_grid_complete(self, sweep_result):
        assert len(sweep_result.reports) == 2 * 2 * 2  # models x thetas x widths

    def test_get(self, sweep_result):
        report = sweep_result.get("xl", 0.8, 32)
        assert report.model_name == "xl"
        assert report.theta == 0.8
        with pytest.raises(KeyError):
            sweep_result.get("xl", 0.5, 32)

    def test_theta_series_monotone(self, sweep_result):
        """Per (model, width): lower theta => fraction can only rise."""
        for model in ("small", "xl"):
            series = sweep_result.theta_series(model, 32)
            fractions = [fraction for _, fraction in series]  # theta ascending
            assert fractions == sorted(fractions, reverse=True)

    def test_width_series_shape(self, sweep_result):
        series = sweep_result.width_series("xl", 0.8)
        assert [w for w, _ in series] == [32, 64]

    def test_capacity_series(self, sweep_result):
        series = sweep_result.capacity_series(0.8, 32)
        assert [name for name, _ in series] == ["small", "xl"]
        fractions = dict(series)
        assert fractions["xl"] >= fractions["small"]

    def test_generations_shared_across_cells(self, sweep_result):
        """Same model at different thetas evaluates the same query count."""
        a = sweep_result.get("xl", 1.0, 32)
        b = sweep_result.get("xl", 0.8, 32)
        assert a.num_queries == b.num_queries

    def test_table1_rows_equal_the_evaluators(self, sweep_setup, sweep_result):
        """A sweep report carries each window's example, as the evaluator
        does: the same texts, width and theta give the same Table 1 rows."""
        corpus, searcher = sweep_setup
        report = sweep_result.get("xl", 0.8, 32)
        # Width 32 tiles the 128-token texts, so the windows rebuild them.
        texts = [
            np.concatenate([o.query for o in report.outcomes if o.generated_text == i])
            for i in range(2)
        ]
        direct = evaluate_generated_texts(texts, searcher, 0.8, 32, model_name="xl")

        def rows(memorization_report):
            return [
                (
                    row.model_name,
                    row.query_tokens.tolist(),
                    row.match_text,
                    row.match_start,
                    row.match_end,
                    row.match_tokens.tolist(),
                )
                for row in table1_rows(memorization_report, corpus, limit=100)
            ]

        assert report.num_memorized > 0
        assert rows(report) == rows(direct)
        assert len(rows(report)) == report.num_memorized
