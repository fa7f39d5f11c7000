"""Prefork multi-worker serving tests (ISSUE 6).

A fleet of forked workers over one shared mmap index must be
indistinguishable from the single-process server at the protocol
level: byte-identical results, one aggregated ``cluster`` stats view,
and crash resilience (a killed worker is respawned and the fleet keeps
answering).  These tests fork real processes — the engine is saved to
disk first so every worker serves the same zero-copy mapping.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.engine import NearDupEngine
from repro.service import (
    PreforkServer,
    ServiceClient,
    ServiceConfig,
    ServiceStats,
    StatsSlots,
    result_to_wire,
)
from repro.service.server import load_served_engine


def canonical(wire: dict) -> str:
    return json.dumps(wire, sort_keys=True)


def wait_until(predicate, timeout: float = 20.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(scope="module")
def saved_engine(planted_data, planted_index, tmp_path_factory):
    """The planted engine saved to disk and reopened over mmap."""
    directory = tmp_path_factory.mktemp("prefork_engine")
    NearDupEngine(planted_data.corpus, planted_index).save(directory)
    return load_served_engine(str(directory))


@pytest.fixture(scope="module")
def queries(planted_data) -> list[np.ndarray]:
    corpus = planted_data.corpus
    return [np.asarray(corpus[text_id])[:40] for text_id in range(6)]


@pytest.fixture(scope="module")
def fleet(saved_engine):
    config = ServiceConfig(
        port=0, procs=2,
        warmup_lists=8, cache_bytes=8 * 1024 * 1024,
    )
    server = PreforkServer(saved_engine, config)
    server.start()
    server.wait_ready()
    yield server
    server.stop()


@pytest.fixture
def client(fleet) -> ServiceClient:
    with ServiceClient("127.0.0.1", fleet.port, timeout=15) as active:
        yield active


class TestServedEqualsDirect:
    def test_fleet_results_byte_identical(self, fleet, client, saved_engine, queries):
        for query in queries:
            served = client.search(query, 0.8)
            direct = result_to_wire(saved_engine.search_raw(query, 0.8))
            assert canonical(served["result"]) == canonical(direct)

    def test_batch_endpoint(self, fleet, client, saved_engine, queries):
        served = client.batch(queries, 0.9)
        direct = [
            result_to_wire(saved_engine.search_raw(query, 0.9))
            for query in queries
        ]
        assert [canonical(item) for item in served["results"]] == [
            canonical(item) for item in direct
        ]


class TestClusterStats:
    def test_stats_carry_cluster_block(self, fleet, client, queries):
        client.search(queries[0], 0.8)
        stats = client.stats()
        assert "cluster" in stats
        cluster = stats["cluster"]
        assert cluster["procs"] == 2
        assert cluster["alive"] == 2
        assert cluster["completed"] >= 1
        assert cluster["requests"] >= cluster["completed"]
        pids = {worker["pid"] for worker in cluster["workers"]}
        assert pids == set(fleet.worker_pids())
        # Aggregated latency comes from summed histogram buckets.
        assert cluster["latency"]["count"] == cluster["completed"]
        assert cluster["latency"]["p95_ms"] >= 0.0
        # The fleet view is the service report over the summed rows.
        per_worker = {"batch_size_distribution", "uptime_seconds"}
        assert set(stats["service"]) - per_worker <= set(cluster)
        for name in ("latency", "queue_wait"):
            assert set(cluster[name]) == set(stats["service"][name])
        assert set(cluster["cache"]) == {
            "hits", "misses", "cached_bytes", "cached_lists",
            "admission_rejections", "singleflight_waits",
        }
        assert cluster["cache"]["misses"] >= 1  # every worker warmed lists

    def test_health_reports_worker_pid(self, fleet, client):
        health = client.health()
        assert health["status"] == "serving"
        assert health["pid"] in fleet.worker_pids()


class TestCrashRespawn:
    def test_killed_worker_is_respawned(self, saved_engine, queries):
        config = ServiceConfig(port=0, procs=2, warmup_lists=0)
        server = PreforkServer(saved_engine, config)
        server.start()
        try:
            server.wait_ready()
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_until(
                lambda: victim not in server.worker_pids()
                and len(server.worker_pids()) == 2
            ), f"no respawn: {server.worker_pids()}"
            server.wait_ready()
            with ServiceClient("127.0.0.1", server.port, timeout=15) as client:
                health = client.health()
                assert health["status"] == "serving"
                served = client.search(queries[0], 0.8)
                direct = result_to_wire(saved_engine.search_raw(queries[0], 0.8))
                assert canonical(served["result"]) == canonical(direct)
        finally:
            server.stop()


class TestStatsSlots:
    def test_cluster_sums_counters_and_buckets(self):
        slots = StatsSlots(3)
        for slot, (completed, latency) in enumerate([(3, 0.001), (5, 0.004)]):
            stats = slots.stats(slot, generation=slot + 1)
            for _ in range(completed):
                stats.record(requests=1, completed=1, latency=[latency])
        # Slot 2 never started a worker: a dead row (pid 0) must be skipped.
        cluster = slots.cluster()
        assert cluster["alive"] == 2
        assert cluster["requests"] == 8
        assert cluster["completed"] == 8
        assert cluster["latency"]["count"] == 8
        assert len(cluster["workers"]) == 2
        assert [worker["generation"] for worker in cluster["workers"]] == [1, 2]

    def test_reset_clears_a_slot(self):
        slots = StatsSlots(1)
        stats = slots.stats(0, generation=1)
        stats.record(requests=1, completed=1, latency=[0.001])
        assert slots.cluster()["completed"] == 1
        slots.reset(0)
        assert slots.cluster()["alive"] == 0
        assert slots.cluster()["completed"] == 0

    def test_slot_stats_write_through(self):
        slots = StatsSlots(1)
        stats = slots.stats(0, generation=7)
        stats.record(requests=1)
        stats.record_batch(4)
        stats.record(lists_loaded=10, point_reads=3)
        stats.record(completed=1, latency=[0.002], queue_wait=[0.0005])
        cluster = slots.cluster()
        assert cluster["requests"] == stats.requests == 1
        assert cluster["batches"] == 1
        assert cluster["batched_queries"] == 4
        assert cluster["mean_batch_size"] == 4.0
        assert cluster["lists_loaded"] == 10
        assert cluster["point_reads"] == 3
        assert cluster["queue_wait"] == stats.snapshot()["queue_wait"]
        assert cluster["workers"][0] == {
            "pid": os.getpid(), "generation": 7, "requests": 1, "completed": 1,
        }

    def test_split_across_slots_matches_in_process(self):
        """One record sequence in one block, or split over two worker
        rows: the cluster reports the same counters, buckets and max."""
        rng = np.random.default_rng(5)
        events = [
            dict(
                requests=1, completed=1, batches=1,
                batched_queries=int(rng.integers(1, 9)),
                lists_loaded=int(rng.integers(0, 50)),
                point_reads=int(rng.integers(0, 5)),
                latency=[float(rng.exponential(0.01))],
                queue_wait=[float(rng.exponential(0.001))],
            )
            for _ in range(40)
        ]
        events += [dict(requests=1, shed=1), dict(timeouts=1), dict(errors=2)]
        whole = ServiceStats()
        slots = StatsSlots(2)
        halves = [slots.stats(0, generation=1), slots.stats(1, generation=2)]
        for position, event in enumerate(events):
            whole.record(**event)
            halves[position % 2].record(**event)
        merged = ServiceStats.merged(slots.view())
        for name in ServiceStats.HISTOGRAMS:
            assert getattr(merged, name).counts == getattr(whole, name).counts
            assert getattr(merged, name).to_dict()["max_ms"] == (
                getattr(whole, name).to_dict()["max_ms"]
            )
        cluster = slots.cluster()
        expected = whole.snapshot()
        for name in ServiceStats.COUNTERS:
            assert cluster[name] == expected[name], name
        assert cluster["mean_batch_size"] == expected["mean_batch_size"]
        for name in ServiceStats.HISTOGRAMS:
            assert cluster[name] == pytest.approx(expected[name])
