"""Replica-aware routing tests (ISSUE 9).

Three layers, cheapest first:

* pure shard-map format tests — format-2 (replica lists) round trips,
  format-1 documents still load (promoted to one-replica sets), the
  validation rejects duplicate/ambiguous endpoints, and ``save()`` is
  crash-safe (no stray temp files);
* :class:`ReplicaState` / :class:`ReplicaSet` unit tests with a fake
  clock — breaker lifecycle (closed → open → half-open probe → closed
  or re-open), the selection policies, and the p95-derived hedge delay
  — no sockets, no sleeps;
* a live replicated fleet (two shards x two replicas, every replica a
  real :class:`SearchService` on an ephemeral port) proving the hard
  invariant: whatever the policy, hedging mode, or replica health, a
  routed answer is byte-identical to the in-process
  :class:`ShardedSearcher` over the same partition.  Failover and
  hedging are driven deterministically — a stopped runner for breaker
  trips, a paused batcher for hedge wins — never by racing timers.
"""

from __future__ import annotations

import asyncio
import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import NearDupEngine
from repro.exceptions import InvalidParameterError
from repro.index.sharded import ShardedIndex, ShardedSearcher
from repro.service import (
    AsyncServiceClient,
    Replica,
    ReplicaSet,
    ReplicaState,
    RouterConfig,
    RouterService,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
    ShardEntry,
    ShardMap,
    build_shard_fleet,
    result_to_wire,
    with_added_replicas,
)
from repro.service.replicas import CLOSED, HALF_OPEN, OPEN
from repro.service.server import load_served_engine

NUM_SHARDS = 2
REPLICAS = 2


def canonical(wire) -> str:
    return json.dumps(wire, sort_keys=True)


# ----------------------------------------------------------------------
# Shard map format 2
# ----------------------------------------------------------------------
class TestShardMapFormat2:
    def entries(self):
        return [
            ShardEntry(
                name="s0",
                first_text=0,
                count=10,
                replicas=(Replica("127.0.0.1", 9000), Replica("127.0.0.1", 9001)),
            ),
            ShardEntry(
                name="s1",
                first_text=10,
                count=5,
                replicas=(Replica("127.0.0.1", 9002), Replica("127.0.0.1", 9003)),
            ),
        ]

    def test_round_trip_preserves_replicas(self, tmp_path):
        shard_map = ShardMap(self.entries())
        path = shard_map.save(tmp_path / "shardmap.json")
        loaded = ShardMap.load(path)
        assert loaded.to_dict() == shard_map.to_dict()
        assert loaded.to_dict()["format"] == 2
        assert [r.endpoint for r in loaded.entries[0].replicas] == [
            "127.0.0.1:9000",
            "127.0.0.1:9001",
        ]
        assert loaded.num_replicas == 4

    def test_primary_is_first_replica_and_backs_host_port(self):
        entry = self.entries()[0]
        assert entry.primary == Replica("127.0.0.1", 9000)
        # host/port view (format-1 callers) tracks the primary
        assert (entry.host, entry.port) == ("127.0.0.1", 9000)

    def test_format1_documents_still_load(self, tmp_path):
        doc = {
            "format": 1,
            "replicas": 48,  # ring vnodes, the format-1 meaning
            "shards": [
                {"name": "s0", "host": "h", "port": 1, "first_text": 0, "count": 3},
                {"name": "s1", "host": "h", "port": 2, "first_text": 3, "count": 4},
            ],
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        loaded = ShardMap.load(path)
        assert loaded.replicas == 48  # ring width survives the rename
        for entry, port in zip(loaded, (1, 2)):
            assert [r.endpoint for r in entry.replicas] == [f"h:{port}"]
        # re-saving upgrades in place
        loaded.save(path)
        assert json.loads(path.read_text())["format"] == 2

    def test_rejects_duplicate_endpoints_within_a_shard(self):
        with pytest.raises(InvalidParameterError):
            ShardEntry(
                name="s0",
                first_text=0,
                count=1,
                replicas=(Replica("h", 1), Replica("h", 1)),
            )

    def test_rejects_one_endpoint_serving_two_shards(self):
        with pytest.raises(InvalidParameterError):
            ShardMap(
                [
                    ShardEntry("s0", "h", 1, 0, 3),
                    ShardEntry("s1", "h", 1, 3, 3),
                ]
            )

    def test_rejects_an_entry_with_no_endpoint(self):
        with pytest.raises(InvalidParameterError):
            ShardEntry(name="s0", first_text=0, count=1)

    def test_with_added_replicas_grows_without_moving_ports(self):
        shard_map = ShardMap(
            [ShardEntry("s0", "h", 9000, 0, 3), ShardEntry("s1", "h", 9001, 3, 3)]
        )
        grown = with_added_replicas(shard_map, 2, base_port=9000)
        for entry, old in zip(grown, shard_map):
            assert entry.replicas[0] == old.primary  # primary kept
            assert len(entry.replicas) == 2
        endpoints = [r.endpoint for e in grown for r in e.replicas]
        assert len(endpoints) == len(set(endpoints))
        # idempotent once the target width is reached
        again = with_added_replicas(grown, 2, base_port=9000)
        assert again.to_dict() == grown.to_dict()

    def test_save_leaves_no_temp_files(self, tmp_path):
        shard_map = ShardMap(self.entries())
        shard_map.save(tmp_path / "shardmap.json")
        shard_map.save(tmp_path / "shardmap.json")  # overwrite path too
        assert [p.name for p in tmp_path.iterdir()] == ["shardmap.json"]


# ----------------------------------------------------------------------
# Breaker + policy units (fake clock, no sockets)
# ----------------------------------------------------------------------
def make_state(port=9000, **kwargs):
    clock = kwargs.pop("clock", None)
    if clock is None:
        now = [0.0]
        clock = lambda: now[0]  # noqa: E731
        state = ReplicaState(Replica("h", port), clock=clock, **kwargs)
        state.now = now  # let tests advance time
        return state
    return ReplicaState(Replica("h", port), clock=clock, **kwargs)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        state = make_state(failure_threshold=3, cooldown_s=5.0)
        for _ in range(2):
            state.on_pick()
            assert state.on_failure() is False
        assert state.breaker_state() == CLOSED
        state.on_pick()
        assert state.on_failure() is True  # the trip is reported once
        assert state.breaker_state() == OPEN
        assert not state.available()
        assert state.breaker_trips == 1

    def test_success_resets_the_streak(self):
        state = make_state(failure_threshold=2)
        state.on_pick()
        state.on_failure()
        state.on_pick()
        state.on_success(0.01)
        state.on_pick()
        assert state.on_failure() is False  # streak restarted at 0
        assert state.breaker_state() == CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        state = make_state(failure_threshold=1, cooldown_s=2.0)
        state.on_pick()
        state.on_failure()
        assert state.breaker_state() == OPEN
        state.now[0] = 2.5  # cooldown elapsed
        assert state.breaker_state() == HALF_OPEN
        assert state.available()
        state.on_pick()  # the probe
        assert not state.available()  # concurrent traffic still barred
        state.on_success(0.01)
        assert state.breaker_state() == CLOSED
        assert state.available()

    def test_failed_probe_rearms_the_cooldown(self):
        state = make_state(failure_threshold=1, cooldown_s=2.0)
        state.on_pick()
        state.on_failure()
        state.now[0] = 2.5
        state.on_pick()  # probe...
        assert state.on_failure() is True  # ...fails: a fresh trip
        assert state.breaker_state() == OPEN
        assert state.breaker_trips == 2
        state.now[0] = 4.0  # only 1.5s into the new cooldown
        assert state.breaker_state() == OPEN
        state.now[0] = 4.6
        assert state.breaker_state() == HALF_OPEN

    def test_cancellation_is_not_a_health_signal(self):
        state = make_state(failure_threshold=1)
        state.on_pick()
        state.on_cancelled()
        assert state.breaker_state() == CLOSED
        assert state.inflight == 0
        assert state.cancelled == 1

    def test_non_breaker_failures_never_trip(self):
        """A 4xx means the replica answered; only transport/5xx count."""
        state = make_state(failure_threshold=1)
        for _ in range(5):
            state.on_pick()
            assert state.on_failure(breaker=False) is False
        assert state.breaker_state() == CLOSED
        assert state.failures == 5

    def test_ewma_tracks_latency(self):
        state = make_state(ewma_alpha=0.5)
        state.on_pick()
        state.on_success(0.100)
        assert state.ewma_s == pytest.approx(0.100)
        state.on_pick()
        state.on_success(0.200)
        assert state.ewma_s == pytest.approx(0.150)


class TestReplicaSetPolicies:
    def make_set(self, policy, count=3, **kwargs):
        now = [0.0]
        clock = lambda: now[0]  # noqa: E731
        states = [
            make_state(port=9000 + index, clock=clock) for index in range(count)
        ]
        replica_set = ReplicaSet(states, policy=policy, clock=clock, **kwargs)
        replica_set.now = now
        return replica_set

    def test_pick_first_is_deterministic(self):
        replica_set = self.make_set("pick-first")
        assert all(
            replica_set.pick() is replica_set.replicas[0] for _ in range(5)
        )

    def test_pick_first_skips_open_breakers(self):
        replica_set = self.make_set("pick-first")
        bad = replica_set.replicas[0]
        for _ in range(bad.failure_threshold):
            bad.on_pick()
            bad.on_failure()
        assert replica_set.pick() is replica_set.replicas[1]

    def test_round_robin_rotates(self):
        replica_set = self.make_set("round-robin")
        picks = [replica_set.pick() for _ in range(6)]
        assert picks[:3] == replica_set.replicas
        assert picks[3:] == replica_set.replicas

    def test_power_of_two_prefers_the_lower_score(self):
        import random

        replica_set = self.make_set("power-of-two", rng=random.Random(0))
        fast, slow = replica_set.replicas[0], replica_set.replicas[1]
        for state in replica_set.replicas:
            state.on_pick()
            state.on_success(0.100)
        fast.on_pick()
        fast.on_success(0.001)  # drag its EWMA down
        wins = 0
        for _ in range(20):
            picked = replica_set.pick()
            assert picked.score() <= max(fast.score(), slow.score())
            wins += picked is fast
        # fast is in 2/3 of the sampled pairs and wins each one it is in
        assert wins > 10

    def test_exclusion_and_exhaustion(self):
        replica_set = self.make_set("pick-first", count=2)
        first = replica_set.pick()
        second = replica_set.pick(exclude=[first])
        assert second is not first
        assert replica_set.pick(exclude=[first, second]) is None

    def test_all_breakers_open_falls_back_to_soonest_recovery(self):
        replica_set = self.make_set("pick-first", count=2)
        early, late = replica_set.replicas
        for state, trip_at in ((early, 0.0), (late, 1.0)):
            replica_set.now[0] = trip_at
            for _ in range(state.failure_threshold):
                state.on_pick()
                state.on_failure()
        replica_set.now[0] = 1.5  # both still open
        assert replica_set.pick() is early  # its cooldown expires first

    def test_hedge_delay_fixed_auto_and_warmup(self):
        replica_set = self.make_set("pick-first")
        assert replica_set.hedge_delay(40.0) == pytest.approx(0.040)
        # auto mode before warmup: the fixed default
        from repro.service.replicas import (
            DEFAULT_HEDGE_DELAY_S,
            HEDGE_WARMUP_SAMPLES,
        )

        assert replica_set.hedge_delay(0) == DEFAULT_HEDGE_DELAY_S
        for _ in range(HEDGE_WARMUP_SAMPLES):
            replica_set.record_latency(0.010)
        delay = replica_set.hedge_delay(0)
        assert delay >= 0.010  # the p95 bucket bound covers the samples
        assert delay < DEFAULT_HEDGE_DELAY_S

    def test_snapshot_shape(self):
        replica_set = self.make_set("round-robin")
        replica_set.pick().on_pick()
        snapshot = replica_set.snapshot()
        assert snapshot["policy"] == "round-robin"
        assert len(snapshot["replicas"]) == 3
        first = snapshot["replicas"][0]
        assert first["picks"] == 1
        assert first["breaker"]["state"] == CLOSED


# ----------------------------------------------------------------------
# A live replicated fleet: 2 shards x 2 replicas + the reference
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine(planted_data, planted_index) -> NearDupEngine:
    return NearDupEngine(planted_data.corpus, planted_index)


@pytest.fixture(scope="module")
def queries(planted_data) -> list[np.ndarray]:
    corpus = planted_data.corpus
    return [np.asarray(corpus[text_id])[:40] for text_id in range(4)]


@pytest.fixture(scope="module")
def direct(engine) -> ShardedSearcher:
    sharded = ShardedIndex.build(
        engine.corpus, engine.index.family, engine.index.t, num_shards=NUM_SHARDS
    )
    return ShardedSearcher(sharded)


@pytest.fixture(scope="module")
def replicated_fleet(engine, tmp_path_factory):
    """Every shard served by REPLICAS independent servers (same data)."""
    root = tmp_path_factory.mktemp("replicated")
    saved_map = build_shard_fleet(
        engine, root, num_shards=NUM_SHARDS, replicas_per_shard=REPLICAS
    )
    runners: dict[str, list[ServiceRunner]] = {}
    entries = []
    for entry in saved_map:
        shard_runners = []
        for _ in range(REPLICAS):
            shard_engine = load_served_engine(str(root / entry.name))
            shard_runners.append(
                ServiceRunner(
                    shard_engine,
                    ServiceConfig(port=0, warmup_lists=0),
                ).start()
            )
        runners[entry.name] = shard_runners
        entries.append(
            ShardEntry(
                name=entry.name,
                first_text=entry.first_text,
                count=entry.count,
                replicas=tuple(
                    Replica(r.host, r.port) for r in shard_runners
                ),
            )
        )
    yield {"map": ShardMap(entries), "runners": runners}
    for shard_runners in runners.values():
        for runner in shard_runners:
            runner.stop()


ROUTER_CONFIGS = [
    ("pick-first", None),
    ("round-robin", None),
    ("power-of-two", None),
    ("power-of-two", 0),  # hedging in auto (p95) mode
    ("pick-first", 25.0),  # hedging with a fixed delay
]


@pytest.fixture(scope="module")
def routed_clients(replicated_fleet):
    """One live router + client per (policy, hedge) configuration."""
    clients = {}
    stack = []
    for policy, hedge in ROUTER_CONFIGS:
        router = RouterService(
            replicated_fleet["map"],
            RouterConfig(
                port=0, policy=policy, hedge_after_ms=hedge, policy_seed=7
            ),
        )
        runner = ServiceRunner(service=router).start()
        client = ServiceClient(runner.host, runner.port)
        clients[(policy, hedge)] = client
        stack.append((client, runner))
    yield clients
    for client, runner in stack:
        client.close()
        runner.stop()


class TestRoutedIdentityAcrossPolicies:
    @pytest.mark.parametrize("policy,hedge", ROUTER_CONFIGS)
    def test_byte_identity_with_direct_search(
        self, routed_clients, direct, queries, policy, hedge
    ):
        client = routed_clients[(policy, hedge)]
        for query in queries:
            response = client.search(query, 0.8)
            assert response["ok"] is True
            assert "partial" not in response
            want = result_to_wire(direct.search(query, 0.8))
            assert canonical(response["result"]) == canonical(want)

    @pytest.mark.parametrize("policy,hedge", ROUTER_CONFIGS)
    def test_batch_identity(self, routed_clients, direct, queries, policy, hedge):
        client = routed_clients[(policy, hedge)]
        response = client.batch(queries[:3], 0.6)
        wants = [result_to_wire(direct.search(q, 0.6)) for q in queries[:3]]
        for got, want in zip(response["results"], wants):
            assert canonical(got) == canonical(want)

    @given(
        text_id=st.integers(min_value=0, max_value=249),
        prefix=st.integers(min_value=20, max_value=60),
        theta=st.sampled_from([0.5, 0.8]),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_policy_and_hedging_never_change_results(
        self, routed_clients, direct, planted_data, text_id, prefix, theta
    ):
        """The invariant, property-style: for any query, every routing
        configuration returns the same bytes as the direct search."""
        query = np.asarray(planted_data.corpus[text_id])[:prefix]
        want = canonical(result_to_wire(direct.search(query, theta)))
        for client in routed_clients.values():
            response = client.search(query, theta)
            assert canonical(response["result"]) == want


# ----------------------------------------------------------------------
# Deterministic failover, breaker trips, and hedge wins
# ----------------------------------------------------------------------
@pytest.fixture
def small_replicated(tmp_path):
    """Function-scoped 2x2 fleet over a tiny corpus — safe to degrade."""
    rng = np.random.default_rng(11)
    from repro.corpus.corpus import InMemoryCorpus

    texts = [
        rng.integers(0, 40, size=int(rng.integers(30, 60))).astype(np.uint32)
        for _ in range(20)
    ]
    engine = NearDupEngine.from_corpus(InMemoryCorpus(texts), k=8, t=10)
    saved_map = build_shard_fleet(
        engine, tmp_path, num_shards=2, replicas_per_shard=2
    )
    runners = {}
    entries = []
    for entry in saved_map:
        shard_runners = [
            ServiceRunner(
                load_served_engine(str(tmp_path / entry.name)),
                ServiceConfig(port=0, warmup_lists=0),
            ).start()
            for _ in range(2)
        ]
        runners[entry.name] = shard_runners
        entries.append(
            ShardEntry(
                name=entry.name,
                first_text=entry.first_text,
                count=entry.count,
                replicas=tuple(Replica(r.host, r.port) for r in shard_runners),
            )
        )
    fleet = {
        "map": ShardMap(entries),
        "runners": runners,
        "query": texts[3][:30].tolist(),
        "engine": engine,
    }
    yield fleet
    for shard_runners in runners.values():
        for runner in shard_runners:
            runner.stop()


def start_router(shard_map, **config_kwargs) -> tuple:
    router = RouterService(shard_map, RouterConfig(port=0, **config_kwargs))
    runner = ServiceRunner(service=router).start()
    return router, runner


class TestFailoverAndBreaker:
    def test_dead_primary_fails_over_without_partial(self, small_replicated):
        """Kill shard0's primary: pick-first keeps choosing it, the
        failover retries on the survivor, and after breaker_failures
        consecutive failures the breaker opens and it stops being
        picked at all — all invisible to the caller."""
        small_replicated["runners"]["shard0"][0].stop()
        router, runner = start_router(
            small_replicated["map"],
            policy="pick-first",
            breaker_failures=2,
        )
        direct2 = ShardedSearcher(
            ShardedIndex.build(
                small_replicated["engine"].corpus,
                small_replicated["engine"].index.family,
                small_replicated["engine"].index.t,
                num_shards=2,
            )
        )
        want = canonical(
            result_to_wire(direct2.search(small_replicated["query"], 0.5))
        )
        try:
            with ServiceClient(runner.host, runner.port) as client:
                for _ in range(4):
                    response = client.search(small_replicated["query"], 0.5)
                    assert response["ok"] is True
                    assert "partial" not in response
                    assert canonical(response["result"]) == want
                stats = client.stats()
        finally:
            runner.stop()
        router_block = stats["router"]
        assert router_block["failovers"] >= 2
        assert router_block["breaker_trips"] >= 1
        dead_endpoint = small_replicated["map"].entries[0].primary.endpoint
        replica_snapshots = {
            snap["endpoint"]: snap
            for snap in stats["routing"]["shard0"]["replicas"]
        }
        assert replica_snapshots[dead_endpoint]["breaker"]["state"] == OPEN
        assert replica_snapshots[dead_endpoint]["failures"] >= 2
        # once open, the breaker keeps the dead replica out of the path:
        # later requests stop failing over entirely
        assert router_block["failovers"] < 4

    def test_both_replicas_down_yields_partial(self, small_replicated):
        for runner in small_replicated["runners"]["shard1"]:
            runner.stop()
        router, runner = start_router(
            small_replicated["map"], policy="round-robin"
        )
        try:
            with ServiceClient(runner.host, runner.port) as client:
                response = client.search(small_replicated["query"], 0.5)
        finally:
            runner.stop()
        assert response["partial"] is True
        assert [f["shard"] for f in response["failed_shards"]] == ["shard1"]


class TestHedging:
    def test_paused_primary_is_rescued_by_a_hedge(self, small_replicated):
        """Hold shard0's primary at the batcher pause gate: the
        sub-request cannot answer, the hedge timer fires, the backup
        replica wins, and the caller sees a normal (non-partial)
        response plus hedge counters in /stats."""
        primary = small_replicated["runners"]["shard0"][0]
        primary.call(primary.service.batcher.pause)
        router, runner = start_router(
            small_replicated["map"],
            policy="pick-first",
            hedge_after_ms=30.0,
        )
        try:
            with ServiceClient(runner.host, runner.port) as client:
                response = client.search(small_replicated["query"], 0.5)
                stats = client.stats()
        finally:
            primary.call(primary.service.batcher.resume)
            runner.stop()
        assert response["ok"] is True
        assert "partial" not in response
        router_block = stats["router"]
        assert router_block["hedges_fired"] >= 1
        assert router_block["hedge_wins"] >= 1
        backup_endpoint = small_replicated["map"].entries[0].replicas[1].endpoint
        replica_snapshots = {
            snap["endpoint"]: snap
            for snap in stats["routing"]["shard0"]["replicas"]
        }
        assert replica_snapshots[backup_endpoint]["hedges"] >= 1
        assert replica_snapshots[backup_endpoint]["hedge_wins"] >= 1

    def test_single_replica_shards_never_hedge(self, small_replicated):
        """A format-1-shaped map (one replica per shard) with hedging
        on must behave exactly like the unhedged router."""
        entries = [
            ShardEntry(
                name=entry.name,
                first_text=entry.first_text,
                count=entry.count,
                replicas=(entry.primary,),
            )
            for entry in small_replicated["map"]
        ]
        router, runner = start_router(
            ShardMap(entries), policy="pick-first", hedge_after_ms=1.0
        )
        try:
            with ServiceClient(runner.host, runner.port) as client:
                response = client.search(small_replicated["query"], 0.5)
                stats = client.stats()
        finally:
            runner.stop()
        assert response["ok"] is True
        assert stats["router"]["hedges_fired"] == 0


# ----------------------------------------------------------------------
# The async client's stale-pooled-connection replay
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def restartable_server(tmp_path):
    """A tiny engine served on a *fixed* port so a restart lands on the
    same endpoint — exactly the stale-pool scenario."""
    rng = np.random.default_rng(3)
    from repro.corpus.corpus import InMemoryCorpus

    texts = [
        rng.integers(0, 30, size=40).astype(np.uint32) for _ in range(8)
    ]
    engine = NearDupEngine.from_corpus(InMemoryCorpus(texts), k=8, t=10)
    port = free_port()

    def start() -> ServiceRunner:
        return ServiceRunner(
            engine, ServiceConfig(port=port, warmup_lists=0)
        ).start()

    runner = start()
    holder = {"runner": runner, "port": port, "start": start}
    yield holder
    holder["runner"].stop()


class TestStalePooledConnections:
    def test_idempotent_request_replays_on_a_fresh_socket(
        self, restartable_server
    ):
        holder = restartable_server

        async def exercise():
            client = AsyncServiceClient("127.0.0.1", holder["port"])
            try:
                assert (await client.health())["ok"] is True
                assert client.pooled_connections == 1
                # restart the server: the pooled socket is now stale
                holder["runner"].stop()
                holder["runner"] = await asyncio.to_thread(holder["start"])
                response = await client.health()
                assert response["ok"] is True
                return client.pool_stats()
            finally:
                await client.close()

        stats = asyncio.run(exercise())
        assert stats["stale_retries"] == 1
        assert stats["opened"] == 2  # original + the replay's fresh socket
        assert stats["discarded"] >= 1

    def test_non_idempotent_requests_never_replay(self, restartable_server):
        holder = restartable_server

        async def exercise():
            client = AsyncServiceClient("127.0.0.1", holder["port"])
            try:
                assert (await client.health())["ok"] is True
                holder["runner"].stop()
                holder["runner"] = await asyncio.to_thread(holder["start"])
                with pytest.raises(
                    (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)
                ):
                    await client.request(
                        "POST",
                        "/search",
                        {"query": [1, 2, 3]},
                        idempotent=False,
                    )
                return client.pool_stats()
            finally:
                await client.close()

        stats = asyncio.run(exercise())
        assert stats["stale_retries"] == 0
