"""Service observability: counters, latency quantiles, batch sizes.

A deployed search front-end is tuned by three questions — is admission
control shedding, where is the latency, and is micro-batching actually
coalescing?  :class:`ServiceStats` answers all three from O(1) memory:
fixed-bucket histograms instead of reservoirs, so the ``/stats``
endpoint stays cheap no matter how long the server has been up.

Each counter block keeps its counters and histograms in one flat
float64 row whose layout its class declares once, here.  The row is
private to the instance, except in a prefork worker: its
:class:`ServiceStats` is built over its own slot of shared memory
(:class:`~repro.service.prefork.StatsSlots`), so each update is visible
fleet-wide as it happens, and the ``cluster`` view is the same report
run over the live rows summed (:meth:`ServiceStats.cluster`).
"""

from __future__ import annotations

import array
import os
import threading
import time
from collections import Counter
from typing import Any

import numpy as np


class LatencyHistogram:
    """Fixed geometric-bucket latency histogram with quantile lookup.

    Buckets double from 0.25 ms; 24 buckets cover ~35 minutes, far past
    any sane request deadline.  A quantile is reported as the upper
    bound of the bucket where the cumulative count crosses it — biased
    at most one bucket (2x) high, which is the right fidelity for a
    p99 on a counter budget of ``24 * 8`` bytes.  The state is one
    float64 row — count, sum of seconds, max seconds, then the bucket
    counts — so a histogram can live inside a counter block's row.
    """

    FIRST_BOUND_SECONDS = 0.00025
    NUM_BUCKETS = 24
    _COUNT, _SUM, _MAX, _BUCKETS = 0, 1, 2, 3
    WIDTH = _BUCKETS + NUM_BUCKETS

    def __init__(self, row: memoryview | None = None) -> None:
        self._row = memoryview(array.array("d", bytes(8 * self.WIDTH))) if row is None else row

    @property
    def total(self) -> int:
        return int(self._row[self._COUNT])

    @property
    def counts(self) -> list[int]:
        return [int(count) for count in self._row[self._BUCKETS :]]

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        bound = self.FIRST_BOUND_SECONDS
        slot = 0
        while seconds > bound and slot < self.NUM_BUCKETS - 1:
            bound *= 2.0
            slot += 1
        row = self._row
        row[self._BUCKETS + slot] += 1
        row[self._COUNT] += 1
        row[self._SUM] += seconds
        row[self._MAX] = max(row[self._MAX], seconds)

    def quantile(self, q: float) -> float:
        """Upper bucket bound at cumulative fraction ``q`` (0 if empty)."""
        if self.total == 0:
            return 0.0
        needed = q * self.total
        cumulative = 0
        bound = self.FIRST_BOUND_SECONDS
        for count in self._row[self._BUCKETS :]:
            cumulative += count
            if cumulative >= needed:
                return bound
            bound *= 2.0
        return bound / 2.0

    @property
    def mean(self) -> float:
        return self._row[self._SUM] / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.total,
            "mean_ms": 1e3 * self.mean,
            "p50_ms": 1e3 * self.quantile(0.50),
            "p95_ms": 1e3 * self.quantile(0.95),
            "p99_ms": 1e3 * self.quantile(0.99),
            "max_ms": 1e3 * self._row[self._MAX],
        }


class CounterBlock:
    """Named counters and latency histograms in one flat float64 row.

    A subclass's ``COUNTERS``, ``HISTOGRAMS`` and ``GAUGES`` are the
    whole layout: the counters in order, ``LatencyHistogram.WIDTH``
    cells per histogram, then the gauges (cells the report leaves out).
    Counters read as integer attributes and change through
    :meth:`record`.  Only the owner writes its row; the lock keeps
    :meth:`snapshot` consistent for other threads, and aligned 8-byte
    stores keep readers in other processes safe without one.
    """

    COUNTERS: tuple[str, ...] = ()
    HISTOGRAMS: tuple[str, ...] = ()
    GAUGES: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        width = LatencyHistogram.WIDTH
        cls._HISTOGRAM_AT = {
            name: len(cls.COUNTERS) + position * width
            for position, name in enumerate(cls.HISTOGRAMS)
        }
        gauges_at = len(cls.COUNTERS) + len(cls.HISTOGRAMS) * width
        cls._AT = {name: at for at, name in enumerate(cls.COUNTERS)}
        cls._AT.update({name: gauges_at + at for at, name in enumerate(cls.GAUGES)})
        cls.WIDTH = gauges_at + len(cls.GAUGES)
        for name in cls.COUNTERS:
            setattr(cls, name, property(lambda self, at=cls._AT[name]: int(self._row[at])))

    def __init__(self, row: memoryview | None = None) -> None:
        self._row = memoryview(array.array("d", bytes(8 * self.WIDTH))) if row is None else row
        self._lock = threading.RLock()
        self.started = time.monotonic()
        for name, at in self._HISTOGRAM_AT.items():
            setattr(self, name, LatencyHistogram(self._row[at : at + LatencyHistogram.WIDTH]))

    def record(self, **amounts) -> None:
        """Add to counters and observe histograms by name, under one lock.

        A counter takes the amount to add, a histogram the sequence of
        seconds to observe: ``record(completed=1, latency=[0.004])``.
        """
        with self._lock:
            for name, amount in amounts.items():
                if name in self._HISTOGRAM_AT:
                    for seconds in amount:
                        getattr(self, name).observe(seconds)
                else:
                    self._row[self._AT[name]] += amount

    @classmethod
    def merged(cls, rows: np.ndarray):
        """One block over the sum of ``rows`` (histogram maxima take the
        max): what a single block fed every row's updates would hold."""
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, cls.WIDTH)
        total = rows.sum(axis=0)
        for at in cls._HISTOGRAM_AT.values():
            top = at + LatencyHistogram._MAX
            total[top] = rows[:, top].max(initial=0.0)
        return cls(memoryview(total))

    def _report(self) -> dict[str, Any]:
        report = {name: getattr(self, name) for name in self.COUNTERS}
        return {**report, **{name: getattr(self, name).to_dict() for name in self.HISTOGRAMS}}

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready snapshot (the ``/stats`` block)."""
        with self._lock:
            return {"uptime_seconds": time.monotonic() - self.started, **self._report()}


#: List-cache counters a worker copies into its row for the cluster view.
_CACHE_KEYS = (
    "hits", "misses", "cached_bytes", "cached_lists",
    "admission_rejections", "singleflight_waits",
)


class ServiceStats(CounterBlock):
    """Counter block behind the service's ``/stats`` endpoint.

    ``lists_loaded`` and ``point_reads`` count full-list loads and
    zone-map point reads; ``queue_wait`` observes only requests that
    queued (not client-supplied batches).  A ``generation`` (prefork
    workers) stamps the row with the owning pid, which marks it live
    for :meth:`cluster`.
    """

    COUNTERS = (
        "requests", "completed", "errors", "shed", "timeouts",
        "batches", "batched_queries", "lists_loaded", "point_reads",
    )
    HISTOGRAMS = ("latency", "queue_wait")
    GAUGES = ("pid", "generation", *(f"cache_{key}" for key in _CACHE_KEYS))

    def __init__(self, row: memoryview | None = None, *, generation: int = 0) -> None:
        super().__init__(row)
        self.batch_sizes: Counter[int] = Counter()
        if generation:
            self._row[self._AT["pid"]] = os.getpid()
            self._row[self._AT["generation"]] = generation

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.record(batches=1, batched_queries=size)
            self.batch_sizes[size] += 1

    def record_cache(self, cache) -> None:
        """Copy a list cache's counters (a ``CacheStats``) into the row."""
        with self._lock:
            for key in _CACHE_KEYS:
                self._row[self._AT[f"cache_{key}"]] = getattr(cache, key)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_queries / self.batches if self.batches else 0.0

    def _report(self) -> dict[str, Any]:
        return {**super()._report(), "mean_batch_size": self.mean_batch_size}

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready snapshot (the ``/stats`` service block)."""
        with self._lock:
            sizes = {str(size): n for size, n in sorted(self.batch_sizes.items())}
            return {**super().snapshot(), "batch_size_distribution": sizes}

    @classmethod
    def cluster(cls, rows: np.ndarray) -> dict[str, Any]:
        """The ``cluster`` block of ``/stats`` over every worker's row.

        Rows with no pid (never started, or reset for a respawn) are
        skipped.  The live rows' sum is reported by the same code as
        one worker's ``service`` block — less the per-worker uptime and
        batch-size distribution — plus the fleet's size, each worker's
        identity, and the summed cache counters.
        """
        at = cls._AT
        live = rows[rows[:, at["pid"]] > 0]
        total = cls.merged(live)
        workers = [
            {key: int(row[at[key]]) for key in ("pid", "generation", "requests", "completed")}
            for row in live
        ]
        return {
            **total._report(),
            "procs": int(rows.shape[0]),
            "alive": int(live.shape[0]),
            "workers": workers,
            "cache": {key: int(total._row[at[f"cache_{key}"]]) for key in _CACHE_KEYS},
        }


class RouterStats(CounterBlock):
    """Counters behind the router's ``/stats`` endpoint.

    The router's health question is "how wide is the fan-out spread":
    end-to-end ``latency`` is the *max* over shards, so its gap to the
    per-shard ``shard_latency`` is the price of the slowest replica.
    ``fanout_*`` count per-shard sub-requests and their failures,
    ``hedge_wins`` the hedges that beat the primary, ``failovers`` the
    sub-requests replayed on another replica.
    """

    COUNTERS = (
        "requests", "completed", "partial", "errors",
        "fanout_requests", "fanout_failures", "hedges_fired", "hedge_wins",
        "failovers", "breaker_trips",
    )
    HISTOGRAMS = ("latency", "shard_latency")
