"""Full Figure-4 sweep runner.

Section 5's evaluation is a grid: models × similarity thresholds ×
window widths.  This module runs the whole grid from one call, reusing
each model's generations across thresholds and widths (generation is
the expensive part and is identical across those axes), which is how
the paper's numbers would actually be produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import Corpus
from repro.exceptions import InvalidParameterError
from repro.lm.generation import GenerationConfig, generate
from repro.lm.models import train_zoo
from repro.memorization.evaluator import MemorizationReport, evaluate_windows
from repro.query.executor import BatchQueryExecutor


@dataclass(frozen=True)
class SweepConfig:
    """The grid of Section 5 (defaults mirror the paper's settings)."""

    model_names: tuple[str, ...] = ("small", "medium", "large", "xl")
    thetas: tuple[float, ...] = (1.0, 0.9, 0.8)
    window_widths: tuple[int, ...] = (32, 64, 128)
    num_texts: int = 4
    text_length: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.model_names:
            raise InvalidParameterError("at least one model is required")
        if not self.thetas or not self.window_widths:
            raise InvalidParameterError("thetas and window_widths must be non-empty")
        if self.num_texts < 1 or self.text_length < 1:
            raise InvalidParameterError("num_texts and text_length must be >= 1")


@dataclass
class SweepResult:
    """All reports of one grid run, with convenience accessors."""

    reports: list[MemorizationReport] = field(default_factory=list)

    def get(self, model: str, theta: float, width: int) -> MemorizationReport:
        for report in self.reports:
            if (
                report.model_name == model
                and report.theta == theta
                and report.window_width == width
            ):
                return report
        raise KeyError((model, theta, width))

    def theta_series(self, model: str, width: int) -> list[tuple[float, float]]:
        """(theta, memorized_fraction) pairs — one Figure 4(a/c) line."""
        return sorted(
            (r.theta, r.memorized_fraction)
            for r in self.reports
            if r.model_name == model and r.window_width == width
        )

    def width_series(self, model: str, theta: float) -> list[tuple[int, float]]:
        """(width, memorized_fraction) pairs — one Figure 4(b/d) line."""
        return sorted(
            (r.window_width, r.memorized_fraction)
            for r in self.reports
            if r.model_name == model and r.theta == theta
        )

    def capacity_series(self, theta: float, width: int) -> list[tuple[str, float]]:
        """(model, fraction) in report order — the capacity axis."""
        return [
            (r.model_name, r.memorized_fraction)
            for r in self.reports
            if r.theta == theta and r.window_width == width
        ]


def run_figure4_sweep(
    corpus: Corpus,
    searcher: NearDuplicateSearcher,
    config: SweepConfig | None = None,
    *,
    vocab_size: int | None = None,
    generation: GenerationConfig | None = None,
    batch_size: int | None = None,
) -> SweepResult:
    """Train the zoo, generate once per model, evaluate the whole grid.

    Each (model, width) cell is one :func:`evaluate_windows` call: all
    its windows form one query batch, and one batched pass at the
    loosest theta answers every theta at once (rectangles carry exact
    collision counts).  ``batch_size`` is forwarded to
    :class:`~repro.query.executor.BatchQueryExecutor`.
    """
    if config is None:
        config = SweepConfig()
    if generation is None:
        generation = GenerationConfig(strategy="top_k", top_k=50)
    zoo = train_zoo(corpus, list(config.model_names), vocab_size=vocab_size)
    result = SweepResult()
    with BatchQueryExecutor(searcher, batch_size=batch_size) as executor:
        for tier in zoo:
            texts = [
                generate(
                    tier.model,
                    config.text_length,
                    config=generation,
                    seed=config.seed + offset,
                )
                for offset in range(config.num_texts)
            ]
            for width in config.window_widths:
                result.reports += evaluate_windows(
                    executor, texts, width, list(config.thetas), model_name=tier.name
                )
    return result
