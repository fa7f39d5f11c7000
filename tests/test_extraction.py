"""Tests for the training-data extraction attack simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.synthetic import synthweb
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.lm.models import train_model
from repro.memorization.extraction import ExtractionReport, run_extraction_attack


@pytest.fixture(scope="module")
def attack_setup():
    data = synthweb(num_texts=200, mean_length=150, vocab_size=1024, seed=61)
    family = HashFamily(k=16, seed=2)
    index = build_memory_index(data.corpus, family, t=25, vocab_size=1024)
    searcher = NearDuplicateSearcher(index)
    attacked = train_model("xl", data.corpus, vocab_size=1024)
    reference = train_model("small", data.corpus, vocab_size=1024)
    return data.corpus, searcher, attacked.model, reference.model


class TestRunAttack:
    def test_perplexity_ranking(self, attack_setup):
        _, searcher, attacked, _ = attack_setup
        report = run_extraction_attack(
            attacked, searcher, num_samples=12, sample_length=48, theta=0.8, seed=3
        )
        assert report.score_kind == "perplexity"
        assert len(report.candidates) == 12
        scores = [c.score for c in report.candidates]
        assert scores == sorted(scores)  # ranked ascending (most memorized first)

    def test_ratio_ranking(self, attack_setup):
        _, searcher, attacked, reference = attack_setup
        report = run_extraction_attack(
            attacked,
            searcher,
            reference_model=reference,
            num_samples=8,
            sample_length=48,
            seed=3,
        )
        assert report.score_kind == "ratio"

    def test_precision_at(self, attack_setup):
        _, searcher, attacked, _ = attack_setup
        report = run_extraction_attack(
            attacked, searcher, num_samples=10, sample_length=48, seed=5
        )
        assert 0.0 <= report.precision_at(5) <= 1.0
        assert 0.0 <= report.base_rate <= 1.0
        with pytest.raises(InvalidParameterError):
            report.precision_at(0)

    def test_memorized_samples_verified_by_engine(self, attack_setup):
        corpus, searcher, attacked, _ = attack_setup
        report = run_extraction_attack(
            attacked, searcher, num_samples=10, sample_length=48, theta=0.8, seed=7
        )
        for candidate in report.candidates:
            result = searcher.search(candidate.tokens, 0.8)
            assert candidate.memorized == bool(result.matches)

    def test_validation(self, attack_setup):
        _, searcher, attacked, _ = attack_setup
        with pytest.raises(InvalidParameterError):
            run_extraction_attack(attacked, searcher, num_samples=0)
        with pytest.raises(InvalidParameterError):
            run_extraction_attack(attacked, searcher, sample_length=5)


class TestReportMath:
    def test_empty_report(self):
        report = ExtractionReport(theta=0.8, score_kind="perplexity")
        assert report.base_rate == 0.0
        assert report.precision_at(5) == 0.0
        assert report.lift_at_10 == 0.0

    def test_lift(self):
        from repro.memorization.extraction import ExtractionCandidate

        candidates = [
            ExtractionCandidate(i, np.array([1]), float(i), memorized=(i < 5))
            for i in range(20)
        ]
        report = ExtractionReport(
            theta=0.8, score_kind="perplexity", candidates=candidates
        )
        assert report.precision_at(10) == 0.5
        assert report.base_rate == 0.25
        assert report.lift_at_10 == pytest.approx(2.0)
