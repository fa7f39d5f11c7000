"""LLM memorization evaluation (paper Section 5).

Protocol, exactly as the paper describes it:

1. generate unprompted texts with the language model (top-50 sampling
   in the paper's setting);
2. slice each generated text into consecutive non-overlapping windows
   of a fixed width ``x`` — ``T[i*x .. (i+1)*x - 1]`` — and use each
   window as a query sequence;
3. run near-duplicate sequence search against the training corpus for
   every query;
4. report the fraction of query sequences that have at least one
   near-duplicate in the training corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.search import NearDuplicateSearcher
from repro.core.verify import Span
from repro.exceptions import InvalidParameterError
from repro.lm.generation import GenerationConfig, generate
from repro.lm.ngram import NGramLM
from repro.query.executor import BatchQueryExecutor


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one sliding-window query."""

    generated_text: int
    window_index: int
    query: np.ndarray
    matched: bool
    num_texts: int
    example: Span | None


@dataclass
class MemorizationReport:
    """Aggregate of one memorization evaluation run."""

    model_name: str
    theta: float
    window_width: int
    outcomes: list[QueryOutcome] = field(default_factory=list)

    @property
    def num_queries(self) -> int:
        return len(self.outcomes)

    @property
    def num_memorized(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.matched)

    @property
    def memorized_fraction(self) -> float:
        """The paper's headline metric: fraction of queries with a near-duplicate."""
        if not self.outcomes:
            return 0.0
        return self.num_memorized / self.num_queries

    def examples(self, limit: int = 5) -> list[QueryOutcome]:
        """Matched outcomes for Table-1-style reporting."""
        matched = [outcome for outcome in self.outcomes if outcome.matched]
        return matched[:limit]


def sliding_queries(text: np.ndarray, width: int) -> list[np.ndarray]:
    """Consecutive non-overlapping width-``x`` windows of a generated text.

    Matches the paper's ``T[i*x + 1, (i+1)*x]`` slicing: the trailing
    partial window is discarded.
    """
    if width < 1:
        raise InvalidParameterError(f"width must be >= 1, got {width}")
    text = np.asarray(text)
    count = text.size // width
    return [text[i * width : (i + 1) * width] for i in range(count)]


def evaluate_windows(
    executor: BatchQueryExecutor,
    texts: list[np.ndarray],
    window_width: int,
    thetas: list[float],
    *,
    model_name: str = "model",
) -> list[MemorizationReport]:
    """Slice, search and fold: one report per theta, in order.

    All windows of all texts form one query batch run through
    :meth:`~repro.query.executor.BatchQueryExecutor.execute_thetas`, so
    duplicate windows are searched once, the Zipf-head inverted lists
    are read once per batch, and one pass at the loosest theta answers
    every theta.  A window's ``example`` is its first merged span.
    """
    windows = [
        (text_index, window_index, query)
        for text_index, text in enumerate(texts)
        for window_index, query in enumerate(sliding_queries(text, window_width))
    ]
    per_query, _ = executor.execute_thetas([query for *_, query in windows], thetas)
    reports = []
    for theta in thetas:
        report = MemorizationReport(model_name, theta, window_width)
        for (text_index, window_index, query), by_theta in zip(windows, per_query):
            result = by_theta[theta]
            merged = result.merged_spans()
            report.outcomes.append(
                QueryOutcome(
                    generated_text=text_index,
                    window_index=window_index,
                    query=np.asarray(query),
                    matched=bool(result.matches),
                    num_texts=result.num_texts,
                    example=merged[0] if merged else None,
                )
            )
        reports.append(report)
    return reports


def evaluate_generated_texts(
    texts: list[np.ndarray],
    searcher: NearDuplicateSearcher,
    theta: float,
    window_width: int,
    *,
    model_name: str = "model",
    batch_size: int | None = None,
) -> MemorizationReport:
    """Run the sliding-window protocol over pre-generated texts.

    :func:`evaluate_windows` at the one ``theta``, through a
    :class:`~repro.query.executor.BatchQueryExecutor` chunked by
    ``batch_size``.  Matches equal a per-window
    :meth:`~repro.core.search.NearDuplicateSearcher.search`.
    """
    with BatchQueryExecutor(searcher, batch_size=batch_size) as executor:
        (report,) = evaluate_windows(
            executor, texts, window_width, [theta], model_name=model_name
        )
    return report


def evaluate_model(
    model: NGramLM,
    searcher: NearDuplicateSearcher,
    theta: float,
    *,
    num_texts: int = 10,
    text_length: int = 512,
    window_width: int = 32,
    generation: GenerationConfig | None = None,
    model_name: str = "model",
    seed: int = 0,
    batch_size: int | None = None,
) -> MemorizationReport:
    """End-to-end Section 5 evaluation: generate, slice, search, report.

    The paper generates texts longer than 512 tokens with top-50
    sampling and no prompt; those are the defaults here.
    """
    if generation is None:
        generation = GenerationConfig(strategy="top_k", top_k=50)
    texts = [
        generate(model, text_length, config=generation, seed=seed + offset)
        for offset in range(num_texts)
    ]
    return evaluate_generated_texts(
        texts,
        searcher,
        theta,
        window_width,
        model_name=model_name,
        batch_size=batch_size,
    )
