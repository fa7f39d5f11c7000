"""Figure 4: language-model memorization evaluation.

Paper claims reproduced here:
  * (a, c) as the similarity threshold decreases, the fraction of
    generated query windows with near-duplicates in the training corpus
    increases, and higher-capacity models memorize more;
  * (b, d) smaller sliding windows yield a higher memorized fraction
    (short sequences are more likely to have near-duplicates).
"""

from __future__ import annotations

import pytest

from repro.core.search import NearDuplicateSearcher
from repro.lm.generation import GenerationConfig, generate
from repro.lm.models import train_model
from repro.memorization.evaluator import evaluate_generated_texts

from conftest import VOCAB_LARGE, print_series

MODELS = ("small", "medium", "large", "xl")
THETAS = (1.0, 0.9, 0.8)


@pytest.fixture(scope="module")
def zoo_generations(base_corpus):
    """Texts generated by each zoo tier with the paper's top-50 sampling."""
    config = GenerationConfig(strategy="top_k", top_k=50)
    generations = {}
    for name in MODELS:
        tier = train_model(name, base_corpus.corpus, vocab_size=VOCAB_LARGE)
        generations[name] = [
            generate(tier.model, 192, config=config, seed=100 + i) for i in range(4)
        ]
    return generations


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("theta", THETAS)
def test_fig4ac_fraction_vs_theta_and_model(
    benchmark, default_index, zoo_generations, model_name, theta
):
    """Figure 4(a,c): one cell of the (model, theta) grid (x=32)."""
    searcher = NearDuplicateSearcher(default_index)
    report = benchmark.pedantic(
        evaluate_generated_texts,
        args=(zoo_generations[model_name], searcher, theta, 32),
        kwargs={"model_name": model_name},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["memorized_pct"] = round(100 * report.memorized_fraction, 2)
    print_series(
        f"Fig 4(a,c) {model_name} theta={theta}",
        ["model", "theta", "queries", "memorized_pct"],
        [(model_name, theta, report.num_queries, 100 * report.memorized_fraction)],
    )


def test_fig4ac_theta_monotonicity(benchmark, default_index, zoo_generations):
    """Lower theta can only find more (per model)."""
    searcher = NearDuplicateSearcher(default_index)

    def sweep():
        for model_name in ("large", "xl"):
            fractions = []
            for theta in THETAS:
                report = evaluate_generated_texts(
                    zoo_generations[model_name], searcher, theta, 32,
                    model_name=model_name,
                )
                fractions.append(report.memorized_fraction)
            # THETAS is descending, so fractions must be non-decreasing.
            assert fractions == sorted(fractions), (model_name, fractions)

    benchmark.pedantic(sweep, rounds=1, iterations=1)


def test_fig4ac_capacity_monotonicity(benchmark, default_index, zoo_generations):
    """Figure 4's headline: bigger models memorize more (theta=0.8)."""
    searcher = NearDuplicateSearcher(default_index)
    rows = []
    fractions = {}

    def sweep():
        for model_name in MODELS:
            report = evaluate_generated_texts(
                zoo_generations[model_name], searcher, 0.8, 32,
                model_name=model_name,
            )
            fractions[model_name] = report.memorized_fraction
            rows.append((model_name, 100 * report.memorized_fraction))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("Fig 4 capacity trend", ["model", "memorized_pct"], rows)
    assert fractions["xl"] >= fractions["small"]
    assert fractions["large"] >= fractions["small"]


@pytest.mark.parametrize("width", (32, 64, 128))
def test_fig4bd_fraction_vs_window_width(
    benchmark, default_index, zoo_generations, width
):
    """Figure 4(b,d): the sliding-window width sweep (largest model)."""
    searcher = NearDuplicateSearcher(default_index)
    report = benchmark.pedantic(
        evaluate_generated_texts,
        args=(zoo_generations["xl"], searcher, 0.8, width),
        kwargs={"model_name": "xl"},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["memorized_pct"] = round(100 * report.memorized_fraction, 2)
    print_series(
        f"Fig 4(b,d) x={width}",
        ["x", "queries", "memorized_pct"],
        [(width, report.num_queries, 100 * report.memorized_fraction)],
    )


def test_fig4bd_smaller_windows_memorize_more(
    benchmark, default_index, zoo_generations
):
    searcher = NearDuplicateSearcher(default_index)

    def both():
        small = evaluate_generated_texts(zoo_generations["xl"], searcher, 0.8, 32)
        large = evaluate_generated_texts(zoo_generations["xl"], searcher, 0.8, 128)
        return small, large

    small, large = benchmark.pedantic(both, rounds=1, iterations=1)
    # The paper's own Figure 4(d) shows this trend can invert on small
    # window-count samples (their x=128 beat x=64 for GPT-Neo-2.7B
    # because wide windows are few); tolerate one query of slack.
    slack = 1.0 / max(large.num_queries, 1)
    assert small.memorized_fraction >= large.memorized_fraction - slack
