"""Per-replica health tracking and replica selection for the router.

One shard, N identical replicas: the router must decide *which* copy
answers each sub-request, and the decision is what turns replication
into tail-latency insurance rather than mere redundancy.  Three pieces:

* :class:`ReplicaState` — everything the router knows about one
  endpoint: an EWMA of observed latency, the in-flight count, and a
  consecutive-failure **circuit breaker** (closed → open after
  ``failure_threshold`` straight failures; open replicas are skipped
  for ``cooldown_s``, then **half-open**: exactly one probe request is
  allowed through, closing the breaker on success and re-arming the
  cooldown on failure).  Counters (picks, failures, hedges, breaker
  trips) feed the router's ``/stats``.

* :class:`ReplicaSet` — the per-shard group with a selection policy:

  - ``pick-first``     — lowest-index available replica (the format-1
    behavior when every replica is healthy; deterministic);
  - ``round-robin``    — rotate over available replicas;
  - ``power-of-two``   — sample two distinct available replicas and
    take the one with the lower ``(inflight + 1) * ewma`` score: the
    classic two-choices result gets exponentially better max-load than
    random placement for one extra comparison, and scoring by EWMA x
    occupancy makes it latency-aware, not just count-aware.

  When every breaker is open the set still answers: it falls back to
  the replica whose cooldown expires soonest, because a guaranteed
  local failure is strictly worse than a probably-failing attempt.

* hedge-delay bookkeeping — the set tracks a latency histogram of its
  *successful* sub-requests; when hedging is in auto mode the router
  fires the backup request after the shard's observed p95, so hedges
  target exactly the slow tail (~5% extra load) instead of doubling
  every request.

Everything here is mutated only from the router's event loop, so there
are no locks; ``snapshot()`` reads plain ints/floats and is safe to
call from test threads.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, Sequence

from repro.exceptions import InvalidParameterError
from repro.service.shardmap import Replica
from repro.service.stats import LatencyHistogram

#: Selection policies a router (or ``repro-cli route --policy``) accepts.
POLICIES = ("pick-first", "round-robin", "power-of-two")

#: Hedge delay used in auto mode before the histogram has enough
#: samples for a meaningful p95 (seconds).
DEFAULT_HEDGE_DELAY_S = 0.025

#: Successful sub-requests required before auto hedging trusts the p95.
HEDGE_WARMUP_SAMPLES = 8

#: Breaker states, in ``snapshot()["breaker"]["state"]``.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class ReplicaState:
    """Health, load, and counters of one replica endpoint.

    The owner attaches a ``client`` (the router hangs its per-replica
    :class:`~repro.service.aioclient.AsyncServiceClient` here); this
    class itself never touches the network, which keeps the breaker and
    policy logic unit-testable with a fake clock.
    """

    def __init__(
        self,
        replica: Replica,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 2.0,
        ewma_alpha: float = 0.2,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise InvalidParameterError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        self.replica = replica
        self.client = None  #: set by the router (AsyncServiceClient)
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.ewma_alpha = float(ewma_alpha)
        self._clock = clock
        # load + latency
        self.inflight = 0
        self.ewma_s: float | None = None
        # breaker
        self._consecutive_failures = 0
        self._open_until = 0.0
        self._probing = False
        # counters
        self.picks = 0
        self.successes = 0
        self.failures = 0
        self.cancelled = 0
        self.hedges = 0  #: times this replica served as the hedge target
        self.hedge_wins = 0  #: its hedged answer was the one used
        self.breaker_trips = 0

    @property
    def endpoint(self) -> str:
        return self.replica.endpoint

    # -- breaker --------------------------------------------------------
    def breaker_state(self, now: float | None = None) -> str:
        if self._consecutive_failures < self.failure_threshold:
            return CLOSED
        now = self._clock() if now is None else now
        return HALF_OPEN if now >= self._open_until else OPEN

    def available(self, now: float | None = None) -> bool:
        """Whether the policy may route a request here right now.

        Closed breaker: yes.  Open: no.  Half-open: yes, but only for
        one probe at a time — :meth:`on_pick` marks the probe in
        flight, so concurrent requests keep avoiding the replica until
        the probe's verdict is in.
        """
        state = self.breaker_state(now)
        if state == CLOSED:
            return True
        if state == HALF_OPEN:
            return not self._probing
        return False

    # -- request lifecycle ---------------------------------------------
    def on_pick(self) -> None:
        """The router chose this replica for a sub-request."""
        if self.breaker_state() == HALF_OPEN:
            self._probing = True
        self.inflight += 1
        self.picks += 1

    def on_success(self, seconds: float) -> None:
        self.inflight -= 1
        self._consecutive_failures = 0
        self._probing = False
        self.successes += 1
        if self.ewma_s is None:
            self.ewma_s = float(seconds)
        else:
            self.ewma_s += self.ewma_alpha * (float(seconds) - self.ewma_s)

    def on_failure(self, *, breaker: bool = True) -> bool:
        """Record one failed exchange; ``True`` when the breaker trips.

        A failure while half-open re-opens immediately (the probe
        proved the replica is still bad) and counts as a fresh trip.
        ``breaker=False`` counts the failure but leaves the breaker
        alone — a 4xx means the replica *answered*; the request was
        bad, not the endpoint.
        """
        self.inflight -= 1
        self._probing = False
        self.failures += 1
        if not breaker:
            self._consecutive_failures = 0
            return False
        was_open = self._consecutive_failures >= self.failure_threshold
        self._consecutive_failures += 1
        tripped = (
            self._consecutive_failures >= self.failure_threshold
            and (not was_open or self._clock() >= self._open_until)
        )
        if self._consecutive_failures >= self.failure_threshold:
            self._open_until = self._clock() + self.cooldown_s
        if tripped:
            self.breaker_trips += 1
        return tripped

    def on_cancelled(self, seconds: float | None = None) -> None:
        """The router abandoned the exchange (hedge lost / deadline).

        Not a breaker signal: the replica may have been about to
        answer.  But the elapsed time *is* latency information — the
        replica provably took at least that long — so when it exceeds
        the current EWMA it is folded in as a lower-bound sample.
        Without this a consistently-slow replica whose requests always
        lose the hedge race would never record a latency at all and
        keep scoring as unmeasured (0), so power-of-two would keep
        picking it forever.
        """
        self.inflight -= 1
        self._probing = False
        self.cancelled += 1
        if seconds is not None and (
            self.ewma_s is None or float(seconds) > self.ewma_s
        ):
            if self.ewma_s is None:
                self.ewma_s = float(seconds)
            else:
                self.ewma_s += self.ewma_alpha * (float(seconds) - self.ewma_s)

    # -- scoring --------------------------------------------------------
    def score(self) -> float:
        """Load-and-latency score; lower is better.

        ``(inflight + 1) * ewma``: a replica answering in 2 ms with 3
        requests queued scores like an idle one answering in 8 ms.  An
        unmeasured replica scores 0 so new capacity gets probed first.
        """
        return (self.inflight + 1) * (self.ewma_s or 0.0)

    def snapshot(self) -> dict:
        pool = {}
        if self.client is not None:
            pool = self.client.pool_stats()
        return {
            "endpoint": self.endpoint,
            "inflight": self.inflight,
            "ewma_ms": 1e3 * self.ewma_s if self.ewma_s is not None else None,
            "picks": self.picks,
            "successes": self.successes,
            "failures": self.failures,
            "cancelled": self.cancelled,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "breaker": {
                "state": self.breaker_state(),
                "trips": self.breaker_trips,
                "consecutive_failures": self._consecutive_failures,
            },
            "pool": pool,
        }


class ReplicaSet:
    """One shard's replicas + the selection policy over them."""

    def __init__(
        self,
        replicas: Sequence[ReplicaState],
        *,
        policy: str = "pick-first",
        rng: random.Random | None = None,
        clock=time.monotonic,
    ) -> None:
        if not replicas:
            raise InvalidParameterError("a replica set needs at least one replica")
        if policy not in POLICIES:
            raise InvalidParameterError(
                f"unknown policy {policy!r}; choose from {list(POLICIES)}"
            )
        self.replicas = list(replicas)
        self.policy = policy
        self._rng = rng or random.Random()
        self._clock = clock
        self._rotation = 0
        self.latency = LatencyHistogram()  #: successful sub-request latencies

    def __len__(self) -> int:
        return len(self.replicas)

    # -- selection ------------------------------------------------------
    def pick(
        self, *, exclude: Iterable[ReplicaState] = ()
    ) -> ReplicaState | None:
        """Choose a replica by policy, or ``None`` if all are excluded.

        Only replicas whose breaker admits traffic are candidates; when
        *none* does, the least-recently-tripped survivor is returned
        anyway (its attempt doubles as an early probe) — the router
        should fail a shard because its replicas failed, not because a
        bookkeeping state said so.
        """
        excluded = set(map(id, exclude))
        pool = [r for r in self.replicas if id(r) not in excluded]
        if not pool:
            return None
        now = self._clock()
        candidates = [r for r in pool if r.available(now)]
        if not candidates:
            return min(pool, key=lambda r: r._open_until)
        if self.policy == "pick-first" or len(candidates) == 1:
            return candidates[0]
        if self.policy == "round-robin":
            choice = candidates[self._rotation % len(candidates)]
            self._rotation += 1
            return choice
        first, second = self._rng.sample(candidates, 2)
        return first if first.score() <= second.score() else second

    # -- hedge delay ----------------------------------------------------
    def record_latency(self, seconds: float) -> None:
        """Fold one successful sub-request latency into the p95 basis."""
        self.latency.observe(seconds)

    def hedge_delay(self, hedge_after_ms: float) -> float:
        """Seconds to wait before firing the backup request.

        ``hedge_after_ms > 0`` is a fixed operator-chosen delay;
        ``hedge_after_ms == 0`` is auto mode — the shard's observed p95
        (so ~5% of requests hedge), falling back to a small constant
        until enough samples have landed to trust the histogram.
        """
        if hedge_after_ms > 0:
            return hedge_after_ms / 1e3
        if self.latency.total < HEDGE_WARMUP_SAMPLES:
            return DEFAULT_HEDGE_DELAY_S
        return max(self.latency.quantile(0.95), 1e-4)

    def snapshot(self) -> dict:
        return {
            "policy": self.policy,
            "latency": self.latency.to_dict(),
            "replicas": [replica.snapshot() for replica in self.replicas],
        }
