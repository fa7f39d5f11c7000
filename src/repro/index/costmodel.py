"""Cost model for choosing the prefix-filter cutoff.

Section 3.5 notes that "a few works design cost-models to choose a good
cutoff of long and short inverted lists (a.k.a., prefix length)".  This
module implements such a model for our engine.

For a query whose ``k`` lists have lengths ``L_1 >= L_2 >= ... >= L_k``
(descending), marking the ``m`` longest lists as *long* costs:

* **eager I/O** — the ``k - m`` short lists are read in full:
  ``sum(L_{m+1..k}) * 16`` bytes;
* **lazy I/O** — each surviving candidate text triggers a zone-map
  point read of about ``zone_step`` postings in each long list:
  ``candidates * m * zone_step * 16`` bytes;
* **CPU** — the collision-count sweep is ``O(g log g)`` per text group;
  its total is proportional to the eagerly-loaded postings.

The number of candidates is estimated from the short-list mass: texts
whose short-list collisions reach ``beta - m``.  We approximate it by
the mass of the ``beta - m``-th largest contribution, which for the
typical skew is well-approximated by ``sum(short) / (beta - m)`` capped
by the shortest participating list.  The model only needs to *rank*
cutoffs, not predict absolute latency, so these constants suffice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.theory import collision_threshold
from repro.exceptions import InvalidParameterError
from repro.index.inverted import POSTING_BYTES


@dataclass(frozen=True)
class CostEstimate:
    """Modeled cost of one prefix choice for one query."""

    num_long: int
    eager_bytes: int
    lazy_bytes: int
    cpu_units: float

    @property
    def total(self) -> float:
        """Single scalar for ranking: bytes plus CPU-equivalent bytes."""
        return self.eager_bytes + self.lazy_bytes + self.cpu_units


@dataclass(frozen=True)
class PrefixPlan:
    """The chosen set of long lists for one query."""

    long_funcs: tuple[int, ...]
    estimate: CostEstimate


def estimate_cost(
    lengths: np.ndarray,
    num_long: int,
    beta: int,
    *,
    zone_step: int = 64,
    cpu_weight: float = 4.0,
) -> CostEstimate:
    """Model the cost of treating the ``num_long`` longest lists as long."""
    if num_long < 0 or num_long >= max(beta, 1):
        raise InvalidParameterError(
            f"num_long must be in [0, beta); got {num_long} with beta={beta}"
        )
    ordered = np.sort(np.asarray(lengths, dtype=np.int64))[::-1]
    short_mass = int(ordered[num_long:].sum())
    eager_bytes = short_mass * POSTING_BYTES
    alpha = beta - num_long
    # Candidate texts ~ texts that can reach alpha collisions among the
    # short lists; bounded by the alpha-th largest remaining list (a text
    # needs a window in at least alpha distinct lists).
    remaining = ordered[num_long:]
    if remaining.size >= alpha and alpha >= 1:
        candidates = float(remaining[alpha - 1])
    else:
        candidates = 0.0
    lazy_bytes = int(candidates * num_long * zone_step * POSTING_BYTES)
    cpu_units = cpu_weight * short_mass
    return CostEstimate(
        num_long=num_long,
        eager_bytes=eager_bytes,
        lazy_bytes=lazy_bytes,
        cpu_units=cpu_units,
    )


def plan_prefix(
    lengths: np.ndarray,
    k: int,
    theta: float,
    *,
    zone_step: int = 64,
    cpu_weight: float = 4.0,
) -> PrefixPlan:
    """Choose how many (and which) lists to prefix-filter for one query.

    Evaluates every feasible ``num_long`` in ``[0, beta)`` under
    :func:`estimate_cost` and returns the argmin, together with the
    identities of the chosen lists (the longest ones).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size != k:
        raise InvalidParameterError(f"expected {k} list lengths, got {lengths.size}")
    beta = collision_threshold(k, theta)
    best: CostEstimate | None = None
    for num_long in range(0, beta):
        if num_long > lengths.size:
            break
        estimate = estimate_cost(
            lengths, num_long, beta, zone_step=zone_step, cpu_weight=cpu_weight
        )
        if best is None or estimate.total < best.total:
            best = estimate
    assert best is not None
    order = np.argsort(lengths)[::-1]
    chosen = tuple(int(f) for f in order[: best.num_long])
    return PrefixPlan(long_funcs=chosen, estimate=best)


class CostModelSearcher:
    """A :class:`~repro.core.search.NearDuplicateSearcher` variant that
    picks its prefix cutoff per query with :func:`plan_prefix`.

    Implemented as a thin wrapper: for each query it computes the plan
    and delegates to a searcher configured with the matching explicit
    cutoff (the cutoff that marks exactly the planned lists as long).
    """

    def __init__(self, index, *, zone_step: int = 64, cpu_weight: float = 4.0) -> None:
        from repro.core.search import NearDuplicateSearcher

        self.index = index
        self._zone_step = zone_step
        self._cpu_weight = cpu_weight
        self._searcher_factory = lambda cutoff: NearDuplicateSearcher(
            index, long_list_cutoff=cutoff
        )

    def search(self, query: np.ndarray, theta: float, **kwargs):
        family = self.index.family
        sketch = family.sketch(np.asarray(query))
        lengths = self.index.sketch_list_lengths(sketch)
        plan = plan_prefix(
            lengths,
            family.k,
            theta,
            zone_step=self._zone_step,
            cpu_weight=self._cpu_weight,
        )
        if plan.long_funcs:
            # Cutoff just below the shortest planned-long list marks
            # exactly the planned lists long (ties resolved by the
            # searcher's beta cap, which the plan already respects).
            cutoff = int(lengths[list(plan.long_funcs)].min()) - 1
            cutoff = max(cutoff, 0)
            if cutoff == 0:
                cutoff = 1
        else:
            cutoff = 0  # disable filtering
        return self._searcher_factory(cutoff).search(query, theta, **kwargs)
