"""Training-data extraction attack simulation (paper Section 6).

The paper motivates near-duplicate search with the privacy risks of
memorization: Carlini et al.'s *training data extraction attack*
generates many samples from a model, ranks them by how "memorized" they
look, and inspects the top of the ranking.  The near-duplicate engine
is exactly the missing evaluation tool: instead of eyeballing, we can
*measure* how many top-ranked samples truly appear (approximately) in
the training corpus.

Membership scores implemented:

* ``perplexity`` — low model perplexity suggests memorization;
* ``ratio`` — perplexity of the attacked model divided by that of a
  smaller reference model (the attack's best-performing signal in the
  literature: sequences the big model finds uniquely easy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.search import NearDuplicateSearcher
from repro.exceptions import InvalidParameterError
from repro.lm.generation import GenerationConfig, generate
from repro.lm.ngram import NGramLM


@dataclass(frozen=True)
class ExtractionCandidate:
    """One generated sample with its membership score and verdict."""

    sample_index: int
    tokens: np.ndarray
    score: float
    memorized: bool


@dataclass
class ExtractionReport:
    """Outcome of one simulated extraction attack."""

    theta: float
    score_kind: str
    candidates: list[ExtractionCandidate] = field(default_factory=list)

    def precision_at(self, k: int) -> float:
        """Fraction of the top-``k`` ranked samples that are memorized."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        top = self.candidates[:k]
        if not top:
            return 0.0
        return sum(c.memorized for c in top) / len(top)

    @property
    def base_rate(self) -> float:
        """Memorized fraction over all samples (the attack's baseline)."""
        if not self.candidates:
            return 0.0
        return sum(c.memorized for c in self.candidates) / len(self.candidates)

    @property
    def lift_at_10(self) -> float:
        """Precision@10 over base rate — how much ranking helps."""
        base = self.base_rate
        return self.precision_at(10) / base if base else 0.0


def run_extraction_attack(
    model: NGramLM,
    searcher: NearDuplicateSearcher,
    *,
    reference_model: NGramLM | None = None,
    num_samples: int = 50,
    sample_length: int = 64,
    theta: float = 0.8,
    generation: GenerationConfig | None = None,
    seed: int = 0,
) -> ExtractionReport:
    """Generate, rank by membership score, verify with the search engine.

    Parameters
    ----------
    model:
        The attacked model (trained on the indexed corpus).
    searcher:
        Near-duplicate searcher over the training corpus.
    reference_model:
        Enables the ``ratio`` score; without it, plain perplexity
        ranking is used.
    theta:
        Near-duplicate threshold defining "actually memorized".
    """
    if num_samples < 1:
        raise InvalidParameterError("num_samples must be >= 1")
    if sample_length < searcher.t:
        raise InvalidParameterError(
            f"sample_length ({sample_length}) must be >= the index threshold "
            f"({searcher.t}) or no match can ever be reported"
        )
    if generation is None:
        generation = GenerationConfig(strategy="top_k", top_k=50)
    score_kind = "ratio" if reference_model is not None else "perplexity"

    scored = []
    for sample_index in range(num_samples):
        tokens = generate(
            model, sample_length, config=generation, seed=seed + sample_index
        )
        perplexity = model.perplexity(tokens)
        if reference_model is not None:
            reference = reference_model.perplexity(tokens)
            score = perplexity / max(reference, 1e-9)
        else:
            score = perplexity
        scored.append((sample_index, tokens, score))

    # Lower score = more memorized-looking; verify each with the engine.
    scored.sort(key=lambda item: item[2])
    report = ExtractionReport(theta=theta, score_kind=score_kind)
    for sample_index, tokens, score in scored:
        result = searcher.search(tokens, theta)
        report.candidates.append(
            ExtractionCandidate(
                sample_index=sample_index,
                tokens=tokens,
                score=score,
                memorized=bool(result.matches),
            )
        )
    return report
