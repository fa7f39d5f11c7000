"""Scatter-gather router tests (ISSUE 7).

The identity tests run a real fleet inside one process: three shard
engines cut from the planted corpus by :func:`build_shard_fleet`, each
served by a :class:`SearchService` on an ephemeral port, fronted by a
:class:`RouterService` — and every routed answer is compared byte for
byte against an in-process :class:`ShardedSearcher` over the same
partition (matches, spans, re-numbered text ids, and the deterministic
counters of the merged ``QueryStats``).

Partial-result behavior is exercised deterministically: a stopped
shard (connection refused) and a shard whose batcher is held at the
pause gate (deadline exceeded) both yield ``"partial": true`` plus the
failing shard's name, without sleeping on races.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import TRUNCATED_RESPONSE
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import NearDupEngine
from repro.exceptions import InvalidParameterError
from repro.index.sharded import ShardedIndex, ShardedSearcher, shard_ranges
from repro.service import (
    AsyncServiceClient,
    RemoteError,
    RouterConfig,
    RouterService,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
    ServiceStats,
    ShardEntry,
    ShardMap,
    build_shard_fleet,
    result_to_wire,
)
from repro.service.router import discover_shard_fleet
from repro.service.server import load_served_engine

NUM_SHARDS = 3

#: QueryStats fields that are pure functions of (index, query, theta) —
#: timing and io fields vary with cache temperature, these never do.
DETERMINISTIC_STATS = (
    "lists_loaded",
    "long_lists",
    "groups_scanned",
    "candidates",
    "texts_matched",
    "point_reads",
)


def canonical(wire) -> str:
    return json.dumps(wire, sort_keys=True)


# ----------------------------------------------------------------------
# Shard map (no server)
# ----------------------------------------------------------------------
class TestShardMap:
    def entries(self):
        return [
            ShardEntry("s0", "127.0.0.1", 9000, 0, 10),
            ShardEntry("s1", "127.0.0.1", 9001, 10, 7),
            ShardEntry("s2", "127.0.0.1", 9002, 17, 5),
        ]

    def test_locate_translates_global_to_local(self):
        shard_map = ShardMap(self.entries())
        assert shard_map.num_texts == 22
        entry, local = shard_map.locate(0)
        assert (entry.name, local) == ("s0", 0)
        entry, local = shard_map.locate(12)
        assert (entry.name, local) == ("s1", 2)
        entry, local = shard_map.locate(21)
        assert (entry.name, local) == ("s2", 4)
        with pytest.raises(InvalidParameterError):
            shard_map.locate(22)
        with pytest.raises(InvalidParameterError):
            shard_map.locate(-1)

    def test_rejects_gaps_and_overlaps(self):
        broken = [
            ShardEntry("s0", "h", 1, 0, 10),
            ShardEntry("s1", "h", 2, 11, 5),  # gap at 10
        ]
        with pytest.raises(InvalidParameterError):
            ShardMap(broken)
        overlapping = [
            ShardEntry("s0", "h", 1, 0, 10),
            ShardEntry("s1", "h", 2, 9, 5),
        ]
        with pytest.raises(InvalidParameterError):
            ShardMap(overlapping)

    def test_json_round_trip(self, tmp_path):
        shard_map = ShardMap(self.entries())
        path = shard_map.save(tmp_path / "shardmap.json")
        loaded = ShardMap.load(path)
        assert loaded.to_dict() == shard_map.to_dict()
        assert [entry.name for entry in loaded] == ["s0", "s1", "s2"]

    def test_load_rejects_bad_documents(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ShardMap.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidParameterError):
            ShardMap.load(bad)
        bad.write_text(json.dumps({"format": 999, "shards": []}))
        with pytest.raises(InvalidParameterError):
            ShardMap.load(bad)

    @given(total=st.integers(0, 500), num_shards=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_shard_ranges_partition_exactly(self, total, num_shards):
        ranges = shard_ranges(total, num_shards)
        assert ranges[0][0] == 0
        expected = 0
        for start, count in ranges:
            assert start == expected
            expected += count
        assert expected == total
        assert len(ranges) <= max(1, num_shards)


# ----------------------------------------------------------------------
# A live fleet: shard servers + router, all on ephemeral ports
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine(planted_data, planted_index) -> NearDupEngine:
    return NearDupEngine(planted_data.corpus, planted_index)


@pytest.fixture(scope="module")
def queries(planted_data) -> list[np.ndarray]:
    corpus = planted_data.corpus
    return [np.asarray(corpus[text_id])[:40] for text_id in range(6)]


@pytest.fixture(scope="module")
def fleet_dir(engine, tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fleet")
    build_shard_fleet(engine, root, num_shards=NUM_SHARDS, base_port=8101)
    return root


@pytest.fixture(scope="module")
def fleet(fleet_dir):
    """Shard servers over the saved fleet + a router, ready to query."""
    saved_map = ShardMap.load(fleet_dir / "shardmap.json")
    runners = []
    live_entries = []
    for entry in saved_map:
        shard_engine = load_served_engine(str(fleet_dir / entry.name))
        runner = ServiceRunner(
            shard_engine, ServiceConfig(port=0, warmup_lists=0)
        ).start()
        runners.append(runner)
        live_entries.append(
            ShardEntry(entry.name, runner.host, runner.port, entry.first_text, entry.count)
        )
    live_map = ShardMap(live_entries)
    router = RouterService(live_map, RouterConfig(port=0))
    router_runner = ServiceRunner(service=router).start()
    yield {
        "router": router,
        "runner": router_runner,
        "shards": runners,
        "map": live_map,
    }
    router_runner.stop()
    for runner in runners:
        runner.stop()


@pytest.fixture(scope="module")
def direct(engine) -> ShardedSearcher:
    """The in-process reference over the identical partition."""
    sharded = ShardedIndex.build(
        engine.corpus,
        engine.index.family,
        engine.index.t,
        num_shards=NUM_SHARDS,
    )
    return ShardedSearcher(sharded)


@pytest.fixture
def client(fleet) -> ServiceClient:
    with ServiceClient(fleet["runner"].host, fleet["runner"].port) as active:
        yield active


class TestRoutedIdentity:
    @pytest.mark.parametrize("theta", [0.5, 0.8])
    def test_search_matches_direct_sharded_search(
        self, client, direct, queries, theta
    ):
        for query in queries:
            response = client.search(query, theta)
            assert response["ok"] is True
            assert "partial" not in response
            want = result_to_wire(direct.search(query, theta))
            assert canonical(response["result"]) == canonical(want)

    def test_merged_stats_counters_match_direct(self, client, direct, queries):
        for query in queries[:3]:
            response = client.search(query, 0.8)
            want = direct.search(query, 0.8).stats
            got = response["server"]["stats"]
            for field in DETERMINISTIC_STATS:
                assert got[field] == getattr(want, field), field

    def test_text_ids_are_renumbered_into_every_shard_range(
        self, client, fleet, planted_data
    ):
        """Query a text owned by each shard: the routed answer must
        contain the *global* id (a self-match), proving the per-shard
        local ids really get the ``first_text`` offset added."""
        corpus = planted_data.corpus
        for entry in fleet["map"]:
            probe_id = entry.first_text + entry.count // 2
            query = np.asarray(corpus[probe_id])[:40]
            response = client.search(query, 0.8)
            matched = {match["text_id"] for match in response["result"]["matches"]}
            assert probe_id in matched
            assert all(0 <= text_id < fleet["map"].num_texts for text_id in matched)

    def test_batch_matches_direct(self, client, direct, queries):
        response = client.batch(queries[:3], 0.6)
        assert response["ok"] is True
        wants = [result_to_wire(direct.search(query, 0.6)) for query in queries[:3]]
        assert len(response["results"]) == 3
        for got, want in zip(response["results"], wants):
            assert canonical(got) == canonical(want)
        assert len(response["server"]["stats"]) == 3

    def test_text_queries_are_rejected(self, client):
        with pytest.raises(RemoteError) as info:
            client.search("raw text query")
        assert info.value.status == 400
        assert "tokenizer" in str(info.value)

    def test_unknown_paths_and_methods(self, fleet):
        import http.client

        connection = http.client.HTTPConnection(
            fleet["runner"].host, fleet["runner"].port, timeout=10
        )
        connection.request("GET", "/nope")
        assert connection.getresponse().status == 404
        connection.close()


class TestRouterEndpoints:
    def test_health_aggregates_shards(self, client, fleet):
        health = client.health()
        assert health["ok"] is True
        assert health["role"] == "router"
        assert health["shards_healthy"] == NUM_SHARDS
        assert health["shards_total"] == NUM_SHARDS
        assert health["texts"] == fleet["map"].num_texts
        names = {shard["name"] for shard in health["shards"]}
        assert names == {entry.name for entry in fleet["map"]}

    def test_stats_aggregates_shards_and_histograms(self, client, queries):
        client.search(queries[0], 0.8)
        stats = client.stats()
        assert stats["ok"] is True
        router_block = stats["router"]
        assert router_block["completed"] >= 1
        assert router_block["fanout_requests"] >= NUM_SHARDS
        assert router_block["latency"]["count"] >= 1
        assert router_block["shard_latency"]["count"] >= NUM_SHARDS
        # per-shard service snapshots and their sum
        assert set(stats["shards"]) == {f"shard{i}" for i in range(NUM_SHARDS)}
        assert stats["aggregate"]["completed"] >= NUM_SHARDS
        assert set(stats["pooled_connections"]) == set(stats["shards"])

    def test_stats_blocks_follow_their_declarations(self, client, fleet):
        """``aggregate`` sums every service counter, and each ``config``
        block is its dataclass, field for field."""
        stats = client.stats()
        assert list(stats["aggregate"]) == list(ServiceStats.COUNTERS)
        assert list(stats["config"]) == [f.name for f in fields(RouterConfig)]
        shard = fleet["shards"][0]
        with ServiceClient(shard.host, shard.port) as direct_client:
            served = direct_client.stats()
        assert list(served["config"]) == [f.name for f in fields(ServiceConfig)]
        for key, total in stats["aggregate"].items():
            assert total >= served["service"][key]

    def test_connection_pool_reuses_sockets(self, fleet, queries):
        router = fleet["router"]

        def pooled_total() -> int:
            return sum(
                state.client.pooled_connections
                for replica_set in router._replicas.values()
                for state in replica_set.replicas
            )

        with ServiceClient(fleet["runner"].host, fleet["runner"].port) as probe:
            for _ in range(4):
                probe.search(queries[0], 0.8)
            after = fleet["runner"].call(pooled_total)
        # one keep-alive connection per shard, reused — not one per request
        assert after == NUM_SHARDS


# ----------------------------------------------------------------------
# Partial results (a degraded 2-shard fleet, function-scoped)
# ----------------------------------------------------------------------
@pytest.fixture
def small_fleet(tmp_path):
    rng = np.random.default_rng(5)
    from repro.corpus.corpus import InMemoryCorpus

    texts = [
        rng.integers(0, 40, size=int(rng.integers(30, 60))).astype(np.uint32)
        for _ in range(20)
    ]
    engine = NearDupEngine.from_corpus(InMemoryCorpus(texts), k=8, t=10)
    build_shard_fleet(engine, tmp_path, num_shards=2, base_port=8101)
    saved_map = ShardMap.load(tmp_path / "shardmap.json")
    runners = []
    entries = []
    for entry in saved_map:
        shard_engine = load_served_engine(str(tmp_path / entry.name))
        runner = ServiceRunner(
            shard_engine, ServiceConfig(port=0, warmup_lists=0)
        ).start()
        runners.append(runner)
        entries.append(
            ShardEntry(entry.name, runner.host, runner.port, entry.first_text, entry.count)
        )
    router = RouterService(ShardMap(entries), RouterConfig(port=0))
    router_runner = ServiceRunner(service=router).start()
    yield {
        "router_runner": router_runner,
        "shards": runners,
        "query": texts[3][:30].tolist(),
        "engine": engine,
        "map": ShardMap(entries),
    }
    router_runner.stop()
    for runner in runners:
        runner.stop()


class TestPartialResults:
    def test_stopped_shard_yields_partial(self, small_fleet):
        """``/search`` and ``/batch`` share the partial-result path."""
        small_fleet["shards"][1].stop()
        with ServiceClient(
            small_fleet["router_runner"].host, small_fleet["router_runner"].port
        ) as client:
            searched = client.search(small_fleet["query"], 0.5)
            batched = client.batch([small_fleet["query"]] * 2, 0.5)
        count0 = small_fleet["engine"].num_texts // 2
        for response, results in (
            (searched, [searched["result"]]),
            (batched, batched["results"]),
        ):
            assert response["ok"] is True
            assert response["partial"] is True
            failed = response["failed_shards"]
            assert [failure["shard"] for failure in failed] == ["shard1"]
            assert failed[0]["code"] in (502, 503)
            # surviving shard's ids are all within its own range
            for result in results:
                for match in result["matches"]:
                    assert match["text_id"] < count0
        assert len(batched["results"]) == len(batched["server"]["stats"]) == 2

    @pytest.mark.parametrize(
        "reply",
        [
            TRUNCATED_RESPONSE,
            b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n",
        ],
        ids=["cut-short", "negative-length", "non-integer-length"],
    )
    def test_broken_shard_response_yields_partial_502(
        self, small_fleet, stub_shard, reply
    ):
        """A shard whose response is cut short or mis-framed is one
        failed shard (502), not a failed request."""
        host, port = stub_shard(reply)
        live, broken = small_fleet["map"].entries
        shard_map = ShardMap(
            [live, ShardEntry(broken.name, host, port, broken.first_text, broken.count)]
        )
        runner = ServiceRunner(
            service=RouterService(shard_map, RouterConfig(port=0))
        ).start()
        try:
            with ServiceClient(runner.host, runner.port) as client:
                response = client.search(small_fleet["query"], 0.5)
        finally:
            runner.stop()
        assert response["ok"] is True
        assert response["partial"] is True
        assert [(f["shard"], f["code"]) for f in response["failed_shards"]] == [
            ("shard1", 502)
        ]

    def test_deadline_exceeded_shard_yields_partial_504(self, small_fleet):
        slow = small_fleet["shards"][0]
        slow.call(slow.service.batcher.pause)
        try:
            with ServiceClient(
                small_fleet["router_runner"].host,
                small_fleet["router_runner"].port,
            ) as client:
                response = client.search(
                    small_fleet["query"], 0.5, timeout_ms=400
                )
        finally:
            slow.call(slow.service.batcher.resume)
        assert response["partial"] is True
        assert [failure["shard"] for failure in response["failed_shards"]] == [
            "shard0"
        ]
        assert response["failed_shards"][0]["code"] == 504

    def test_every_shard_down_is_an_error(self, small_fleet):
        for runner in small_fleet["shards"]:
            runner.stop()
        with ServiceClient(
            small_fleet["router_runner"].host, small_fleet["router_runner"].port
        ) as client:
            with pytest.raises(RemoteError) as info:
                client.search(small_fleet["query"], 0.5)
        assert info.value.status == 502


# ----------------------------------------------------------------------
# Fleet layout on disk
# ----------------------------------------------------------------------
class TestFleetLayout:
    def test_fleet_partition_matches_shard_ranges(self, fleet_dir, engine):
        shard_map = ShardMap.load(fleet_dir / "shardmap.json")
        want = shard_ranges(engine.num_texts, NUM_SHARDS)
        got = [(entry.first_text, entry.count) for entry in shard_map]
        assert got == want
        for index, entry in enumerate(shard_map):
            assert entry.name == f"shard{index}"
            assert (fleet_dir / entry.name / "engine.meta.json").exists()

    def test_discover_rebuilds_a_missing_map(self, fleet_dir):
        saved = ShardMap.load(fleet_dir / "shardmap.json")
        (fleet_dir / "shardmap.json").unlink()
        rebuilt = discover_shard_fleet(fleet_dir, base_port=8101)
        assert [(e.name, e.first_text, e.count) for e in rebuilt] == [
            (e.name, e.first_text, e.count) for e in saved
        ]
        assert (fleet_dir / "shardmap.json").exists()


# ----------------------------------------------------------------------
# The async client's pool bookkeeping (no router)
# ----------------------------------------------------------------------
class TestAsyncServiceClient:
    def test_sequential_requests_share_one_connection(self, fleet, queries):
        shard = fleet["shards"][0]
        import asyncio

        async def exercise():
            client = AsyncServiceClient(shard.host, shard.port)
            try:
                for _ in range(3):
                    response = await client.health()
                    assert response["ok"] is True
                return client.pooled_connections
            finally:
                await client.close()

        assert asyncio.run(exercise()) == 1

    def test_header_without_colon_is_a_502(self, stub_shard):
        """The client refuses a malformed response head, as the server
        refuses a malformed request head, instead of skipping the line."""
        import asyncio

        host, port = stub_shard(
            b"HTTP/1.1 200 OK\r\nno colon here\r\n"
            b"Content-Length: 12\r\n\r\n{\"ok\": true}"
        )

        async def exercise():
            client = AsyncServiceClient(host, port)
            try:
                with pytest.raises(RemoteError, match="malformed header") as excinfo:
                    await client.health()
                return excinfo.value.status
            finally:
                await client.close()

        assert asyncio.run(exercise()) == 502

    def test_timeout_discards_the_connection(self, small_fleet):
        shard = small_fleet["shards"][0]
        shard.call(shard.service.batcher.pause)
        import asyncio

        async def exercise():
            client = AsyncServiceClient(shard.host, shard.port)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await client.request(
                        "POST",
                        "/search",
                        {"query": small_fleet["query"], "timeout_ms": 5000},
                        timeout=0.3,
                    )
                return client.pooled_connections
            finally:
                await client.close()

        try:
            assert asyncio.run(exercise()) == 0
        finally:
            shard.call(shard.service.batcher.resume)
