"""Service observability: counters, latency quantiles, batch sizes.

A deployed search front-end is tuned by three questions — is admission
control shedding, where is the latency, and is micro-batching actually
coalescing?  :class:`ServiceStats` answers all three from O(1) memory:
fixed-bucket histograms instead of reservoirs, so the ``/stats``
endpoint stays cheap no matter how long the server has been up.
"""

from __future__ import annotations

import threading
import time
from collections import Counter


class LatencyHistogram:
    """Fixed geometric-bucket latency histogram with quantile lookup.

    Buckets double from 0.25 ms; 24 buckets cover ~35 minutes, far past
    any sane request deadline.  A quantile is reported as the upper
    bound of the bucket where the cumulative count crosses it — biased
    at most one bucket (2x) high, which is the right fidelity for a
    p99 on a counter budget of ``24 * 8`` bytes.
    """

    FIRST_BOUND_SECONDS = 0.00025
    NUM_BUCKETS = 24

    def __init__(self) -> None:
        self.counts = [0] * self.NUM_BUCKETS
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        bound = self.FIRST_BOUND_SECONDS
        slot = 0
        while seconds > bound and slot < self.NUM_BUCKETS - 1:
            bound *= 2.0
            slot += 1
        self.counts[slot] += 1
        self.total += 1
        self.sum_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def quantile(self, q: float) -> float:
        """Upper bucket bound at cumulative fraction ``q`` (0 if empty)."""
        if self.total == 0:
            return 0.0
        needed = q * self.total
        cumulative = 0
        bound = self.FIRST_BOUND_SECONDS
        for count in self.counts:
            cumulative += count
            if cumulative >= needed:
                return bound
            bound *= 2.0
        return bound / 2.0

    @property
    def mean(self) -> float:
        return self.sum_seconds / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.total,
            "mean_ms": 1e3 * self.mean,
            "p50_ms": 1e3 * self.quantile(0.50),
            "p95_ms": 1e3 * self.quantile(0.95),
            "p99_ms": 1e3 * self.quantile(0.99),
            "max_ms": 1e3 * self.max_seconds,
        }


class ServiceStats:
    """Thread-safe counter block behind the ``/stats`` endpoint.

    Mutated only from the service's event loop, but a lock keeps
    ``snapshot`` safe from other threads (tests, runners); every method
    is O(1) so contention stays negligible next to a search.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests = 0
        self.completed = 0
        self.errors = 0
        self.shed = 0
        self.timeouts = 0
        self.batches = 0
        self.batched_queries = 0
        self.lists_loaded = 0
        self.point_reads = 0
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self.batch_sizes: Counter[int] = Counter()

    # -- recording ------------------------------------------------------
    def record_admitted(self) -> None:
        with self._lock:
            self.requests += 1

    def record_shed(self) -> None:
        with self._lock:
            self.requests += 1
            self.shed += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_queries += size
            self.batch_sizes[size] += 1

    def record_search_io(self, lists_loaded: int, point_reads: int) -> None:
        """Fold one executed batch's index-read counts in (full-list
        loads vs. zone-map point-read operations)."""
        with self._lock:
            self.lists_loaded += int(lists_loaded)
            self.point_reads += int(point_reads)

    def record_completed(
        self, latency_seconds: float, queue_seconds: float | None = None
    ) -> None:
        """``queue_seconds`` is None for requests that never queued
        (client-supplied batches), so they leave ``queue_wait`` alone."""
        with self._lock:
            self.completed += 1
            self.latency.observe(latency_seconds)
            if queue_seconds is not None:
                self.queue_wait.observe(queue_seconds)

    # -- reporting ------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return self.batched_queries / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        """JSON-ready snapshot (the ``/stats`` service block)."""
        with self._lock:
            return {
                "uptime_seconds": time.monotonic() - self.started,
                "requests": self.requests,
                "completed": self.completed,
                "errors": self.errors,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "batches": self.batches,
                "batched_queries": self.batched_queries,
                "lists_loaded": self.lists_loaded,
                "point_reads": self.point_reads,
                "mean_batch_size": self.mean_batch_size,
                "batch_size_distribution": {
                    str(size): count
                    for size, count in sorted(self.batch_sizes.items())
                },
                "latency": self.latency.to_dict(),
                "queue_wait": self.queue_wait.to_dict(),
            }


class RouterStats:
    """Counters behind the router's ``/stats`` endpoint.

    The router's health question is different from a shard's: not "is
    the batcher coalescing" but "how wide is the fan-out spread" —
    end-to-end latency is the *max* over shards, so the gap between the
    per-shard and end-to-end histograms is exactly the price of the
    slowest replica.  Mutated only from the router's event loop, but a
    lock keeps ``snapshot`` safe from other threads (tests, runners).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests = 0
        self.completed = 0
        self.partial = 0
        self.errors = 0
        self.fanout_requests = 0  #: per-shard sub-requests issued
        self.fanout_failures = 0  #: sub-requests that timed out / failed
        self.hedges_fired = 0  #: backup sub-requests sent past the hedge delay
        self.hedge_wins = 0  #: hedges whose answer beat the primary's
        self.failovers = 0  #: sub-requests replayed on another replica
        self.breaker_trips = 0  #: replica breakers opened (incl. re-opens)
        self.latency = LatencyHistogram()  #: end-to-end (max over shards)
        self.shard_latency = LatencyHistogram()  #: every per-shard exchange

    def record_fanout(self, shard_seconds: list[float], failures: int) -> None:
        """Fold one scatter-gather round in (one entry per shard asked)."""
        with self._lock:
            self.fanout_requests += len(shard_seconds) + failures
            self.fanout_failures += failures
            for seconds in shard_seconds:
                self.shard_latency.observe(seconds)

    def record_hedge_fired(self) -> None:
        with self._lock:
            self.hedges_fired += 1

    def record_hedge_win(self) -> None:
        """A hedge's answer was the one used (the primary lost the race)."""
        with self._lock:
            self.hedge_wins += 1

    def record_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    def record_breaker_trip(self) -> None:
        with self._lock:
            self.breaker_trips += 1

    def record_completed(self, seconds: float, *, partial: bool) -> None:
        with self._lock:
            self.requests += 1
            self.completed += 1
            if partial:
                self.partial += 1
            self.latency.observe(seconds)

    def record_error(self) -> None:
        with self._lock:
            self.requests += 1
            self.errors += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_seconds": time.monotonic() - self.started,
                "requests": self.requests,
                "completed": self.completed,
                "partial": self.partial,
                "errors": self.errors,
                "fanout_requests": self.fanout_requests,
                "fanout_failures": self.fanout_failures,
                "hedges_fired": self.hedges_fired,
                "hedge_wins": self.hedge_wins,
                "failovers": self.failovers,
                "breaker_trips": self.breaker_trips,
                "latency": self.latency.to_dict(),
                "shard_latency": self.shard_latency.to_dict(),
            }
