"""Replica-aware routing benchmark: hedging + power-of-two vs. a tail.

ISSUE 9 acceptance benchmark.  The scenario the replica layer exists
for: every shard has one **degraded** replica (a real
:class:`SearchService` whose request path first awaits an injected
``asyncio.sleep`` — pure I/O wait, so the experiment is valid on a
single-core host) and one healthy replica.  Four configurations see
the identical query stream:

* ``all_healthy``            — 2 shards x 2 replicas, every replica at
  the small base delay; pick-first, no hedging.  The baseline.
* ``degraded_single_endpoint`` — the pre-replica deployment shape: a
  format-1-style map listing *only* the degraded replica of each
  shard.  Fan-out latency is the max over shards, so every request
  eats the injected delay; p99 must blow through the gate.
* ``degraded_hedged_p2c``    — the full replica map, power-of-two
  choices + auto (p95-derived) hedging.  The EWMA learns which replica
  is slow within the warmup and routes around it; hedges catch the
  residue.  p99 must hold within 2x the all-healthy baseline.
* ``degraded_hedged_pickfirst`` — pick-first *into* the degraded
  primary with a fixed hedge delay: every request hedges, the healthy
  replica wins the race, and the hedge win/loss counters prove it.

Acceptance (full mode — quick records the same rows without gating):

* ``degraded_single_endpoint`` p99  >  2x ``all_healthy`` p99,
* ``degraded_hedged_p2c``      p99 <=  2x ``all_healthy`` p99,
* ``degraded_hedged_pickfirst`` records ``hedge_wins >= 1``.

The delay injection sleeps on the event loop, so the gates bind on any
host with >= 1 cpu — this benchmark is expected to PASS, not skip.

Run: ``PYTHONPATH=src python benchmarks/bench_replica_routing.py [--quick]``
Writes ``BENCH_replica_routing.json`` next to the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.corpus.synthetic import synthweb
from repro.engine import NearDupEngine
from repro.service import (
    Replica,
    RouterConfig,
    RouterService,
    SearchService,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
    ShardEntry,
    ShardMap,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_replica_routing.json"

NUM_SHARDS = 2
WINDOW = 32
BASE_DELAY_S = 0.020  #: every replica's floor (keeps the baseline honest)
DEGRADED_DELAY_S = 0.150  #: injected on one replica per shard


class DelayedSearchService(SearchService):
    """A shard server whose request path first awaits ``delay_s``.

    The sleep happens on the event loop before routing, so it models a
    slow replica (GC pause, noisy neighbor, cold cache) as pure I/O
    wait — no CPU is burned, which keeps the experiment meaningful on
    a one-core host where real CPU contention could not be isolated.
    """

    def __init__(self, *args, delay_s: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay_s = delay_s

    async def _route(self, method, path, body):
        if self.delay_s > 0:
            await asyncio.sleep(self.delay_s)
        return await super()._route(method, path, body)


def build_engine(quick: bool) -> NearDupEngine:
    data = synthweb(
        num_texts=80 if quick else 200,
        mean_length=120,
        vocab_size=1024,
        duplicate_rate=0.15,
        span_length=WINDOW,
        mutation_rate=0.05,
        seed=23,
    )
    return NearDupEngine.from_corpus(data.corpus, k=16, t=25)


def make_queries(corpus, total: int, rng) -> list[list[int]]:
    queries = []
    for text_id in rng.integers(0, len(corpus), size=total):
        text = np.asarray(corpus[int(text_id)])
        start = int(rng.integers(0, max(1, text.size - WINDOW)))
        queries.append(text[start : start + WINDOW].astype(np.uint32).tolist())
    return queries


def start_replicated_fleet(engine):
    """2 shards x 2 replicas, each replica a DelayedSearchService.

    Returns the replicated shard map, a degraded-only (single-endpoint)
    map over replica 0 of each shard, the runners, and the service
    objects keyed ``(shard, replica)`` so scenarios can retune delays.
    """
    from repro.corpus.corpus import InMemoryCorpus
    from repro.index.builder import build_memory_index
    from repro.index.sharded import shard_ranges

    runners = []
    services = {}
    entries = []
    degraded_entries = []
    for shard_id, (start, count) in enumerate(
        shard_ranges(engine.num_texts, NUM_SHARDS)
    ):
        local = InMemoryCorpus(
            [np.asarray(engine.corpus[start + off]) for off in range(count)]
        )
        index = build_memory_index(
            local, engine.index.family, engine.index.t, vocab_size=1024
        )
        shard_replicas = []
        for replica_id in range(2):
            service = DelayedSearchService(
                NearDupEngine(local, index),
                ServiceConfig(port=0, warmup_lists=0),
                delay_s=BASE_DELAY_S,
            )
            runner = ServiceRunner(service=service).start()
            runners.append(runner)
            services[(shard_id, replica_id)] = service
            shard_replicas.append(Replica(runner.host, runner.port))
        entries.append(
            ShardEntry(
                name=f"shard{shard_id}",
                first_text=start,
                count=count,
                replicas=tuple(shard_replicas),
            )
        )
        degraded_entries.append(
            ShardEntry(
                name=f"shard{shard_id}",
                first_text=start,
                count=count,
                replicas=(shard_replicas[0],),
            )
        )
    return ShardMap(entries), ShardMap(degraded_entries), runners, services


def set_delays(services, primary_s: float, backup_s: float) -> None:
    for (shard_id, replica_id), service in services.items():
        service.delay_s = primary_s if replica_id == 0 else backup_s


def percentiles(latencies: list[float]) -> dict:
    observed = np.asarray(latencies)
    return {
        "p50": float(np.percentile(observed, 50)) * 1e3,
        "p95": float(np.percentile(observed, 95)) * 1e3,
        "p99": float(np.percentile(observed, 99)) * 1e3,
        "mean": float(observed.mean()) * 1e3,
    }


def drive(
    scenario: str,
    shard_map: ShardMap,
    queries,
    theta: float,
    *,
    warmup: int,
    **router_kwargs,
) -> dict:
    """One router configuration over the stream; warmup is untimed (it
    is where the EWMA and the auto hedge delay learn the fleet)."""
    router = RouterService(
        shard_map, RouterConfig(port=0, policy_seed=13, **router_kwargs)
    )
    runner = ServiceRunner(service=router).start()
    latencies = []
    try:
        with ServiceClient(runner.host, runner.port) as client:
            for query in queries[:warmup]:
                client.search(query, theta)
            begin = time.perf_counter()
            for query in queries[warmup:]:
                start = time.perf_counter()
                client.search(query, theta)
                latencies.append(time.perf_counter() - start)
            wall = time.perf_counter() - begin
        stats = router.stats.snapshot()
    finally:
        runner.stop()
    timed = len(queries) - warmup
    return {
        "scenario": scenario,
        "requests": timed,
        "seconds": wall,
        "qps": timed / wall if wall > 0 else 0.0,
        "latency_ms": percentiles(latencies),
        "hedges_fired": stats["hedges_fired"],
        "hedge_wins": stats["hedge_wins"],
        "hedge_losses": stats["hedges_fired"] - stats["hedge_wins"],
        "failovers": stats["failovers"],
        "breaker_trips": stats["breaker_trips"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", "--smoke", dest="quick", action="store_true",
        help="CI scale (seconds, not minutes); gates still bind",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--theta", type=float, default=0.8)
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    total = args.requests or (60 if args.quick else 240)
    warmup = max(10, total // 8)
    engine = build_engine(args.quick)
    queries = make_queries(
        engine.corpus, total + warmup, np.random.default_rng(0)
    )

    replicated_map, degraded_map, runners, services = start_replicated_fleet(
        engine
    )
    rows = []
    try:
        # 1. all replicas healthy: the baseline the gates compare against
        set_delays(services, BASE_DELAY_S, BASE_DELAY_S)
        rows.append(
            drive(
                "all_healthy",
                replicated_map,
                queries,
                args.theta,
                warmup=warmup,
                policy="pick-first",
            )
        )
        # 2..4. replica 0 of every shard degraded
        set_delays(services, DEGRADED_DELAY_S, BASE_DELAY_S)
        rows.append(
            drive(
                "degraded_single_endpoint",
                degraded_map,
                queries,
                args.theta,
                warmup=warmup,
                policy="pick-first",
            )
        )
        rows.append(
            drive(
                "degraded_hedged_p2c",
                replicated_map,
                queries,
                args.theta,
                warmup=warmup,
                policy="power-of-two",
                hedge_after_ms=0,  # auto: the shard's observed p95
            )
        )
        rows.append(
            drive(
                "degraded_hedged_pickfirst",
                replicated_map,
                queries,
                args.theta,
                warmup=warmup,
                policy="pick-first",
                hedge_after_ms=40.0,
            )
        )
    finally:
        for runner in runners:
            runner.stop()

    by_name = {row["scenario"]: row for row in rows}
    baseline_p99 = by_name["all_healthy"]["latency_ms"]["p99"]
    degraded_p99 = by_name["degraded_single_endpoint"]["latency_ms"]["p99"]
    hedged_p99 = by_name["degraded_hedged_p2c"]["latency_ms"]["p99"]
    hedge_wins = by_name["degraded_hedged_pickfirst"]["hedge_wins"]

    header = (
        f"{'scenario':>28} {'qps':>7} {'p50_ms':>8} {'p99_ms':>8} "
        f"{'hedges':>7} {'wins':>5}"
    )
    print(header)
    for row in rows:
        print(
            f"{row['scenario']:>28} {row['qps']:>7.1f} "
            f"{row['latency_ms']['p50']:>8.2f} "
            f"{row['latency_ms']['p99']:>8.2f} "
            f"{row['hedges_fired']:>7d} {row['hedge_wins']:>5d}"
        )

    # Acceptance gates.  The injected delay is event-loop sleep (no CPU),
    # so these bind regardless of core count — no skip path.
    gates = {
        "degraded_exceeds_2x_baseline": {
            "degraded_p99_ms": degraded_p99,
            "threshold_ms": 2.0 * baseline_p99,
            "pass": degraded_p99 > 2.0 * baseline_p99,
        },
        "hedged_p2c_holds_2x_baseline": {
            "hedged_p99_ms": hedged_p99,
            "threshold_ms": 2.0 * baseline_p99,
            "pass": hedged_p99 <= 2.0 * baseline_p99,
        },
        "hedge_wins_recorded": {
            "hedge_wins": hedge_wins,
            "pass": hedge_wins >= 1,
        },
    }
    failures = [name for name, gate in gates.items() if not gate["pass"]]

    payload = {
        "benchmark": "bench_replica_routing",
        "quick": args.quick,
        "requests": total,
        "warmup": warmup,
        "num_shards": NUM_SHARDS,
        "replicas_per_shard": 2,
        "cpu_count": os.cpu_count() or 1,
        "theta": args.theta,
        "base_delay_ms": 1e3 * BASE_DELAY_S,
        "degraded_delay_ms": 1e3 * DEGRADED_DELAY_S,
        "rows": rows,
        "gates": gates,
        "pass": not failures,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.output}")
    if failures:
        for name in failures:
            print(f"acceptance FAIL: {name}: {gates[name]}")
        return 1
    print(
        f"acceptance PASS: baseline p99 {baseline_p99:.1f} ms, degraded "
        f"{degraded_p99:.1f} ms, hedged p2c {hedged_p99:.1f} ms, "
        f"{hedge_wins} hedge wins"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
