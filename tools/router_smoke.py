"""CI smoke test of the scatter-gather tier, end to end through the CLI.

Builds a tiny engine, splits it into a 2-shard fleet
(``build_shard_fleet``), launches ``repro-cli serve-shards`` and
``repro-cli route`` as real child processes, waits for the router to
see both shards healthy, and asserts:

* routed ``/search`` results are byte-identical to a direct in-process
  :class:`ShardedSearcher` over the same partition (several queries and
  thetas, including the re-numbered global text ids);
* ``/batch`` through the router matches direct results too;
* router ``/stats`` aggregates both shards over every service counter,
  and its ``config`` block carries every ``RouterConfig`` field;
* both children drain cleanly (exit 0) on SIGINT.

With ``--replicas 2`` every shard gets two server processes behind a
format-2 shard map, and after the identity checks the smoke **kills
one replica with SIGKILL mid-run** (shard0's primary, found via its
``/health`` pid), then asserts that answers keep flowing byte-identical
and non-partial, that the router's failover and breaker-trip counters
moved, and that ``/health`` reports the shard degraded-but-ok.

Run: ``PYTHONPATH=src python tools/router_smoke.py [--replicas 2]``
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.corpus.synthetic import synthweb
from repro.engine import NearDupEngine
from repro.index.sharded import ShardedIndex, ShardedSearcher
from repro.service import (
    Replica,
    RouterConfig,
    ServiceClient,
    ServiceStats,
    ShardEntry,
    ShardMap,
    build_shard_fleet,
    result_to_wire,
)

NUM_SHARDS = 2


def free_ports(count: int) -> list[int]:
    """Distinct currently-free ports (bound briefly, then released)."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def wait_for(predicate, what: str, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value is not None:
            return value
        time.sleep(0.1)
    raise SystemExit(f"timed out waiting for {what}")


def shutdown(child: subprocess.Popen, name: str) -> None:
    child.send_signal(signal.SIGINT)
    try:
        exit_code = child.wait(timeout=30)
    except subprocess.TimeoutExpired:
        child.kill()
        raise SystemExit(f"{name} did not drain within 30 s of SIGINT")
    assert exit_code == 0, f"{name} exited {exit_code}, expected 0"


def kill_one_replica(shard_map: ShardMap) -> str:
    """SIGKILL shard0's primary server (pid from its own /health)."""
    victim = shard_map.entries[0].primary
    with ServiceClient(victim.host, victim.port, timeout=5) as probe:
        pid = probe.health()["pid"]
    os.kill(pid, signal.SIGKILL)
    # wait until the endpoint actually refuses connections
    def dead():
        try:
            with socket.create_connection(
                (victim.host, victim.port), timeout=0.2
            ):
                return None
        except OSError:
            return True

    wait_for(dead, "the killed replica's port to close")
    return victim.endpoint


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replica endpoints per shard (2 adds the kill-one-replica "
        "degradation phase)",
    )
    args = parser.parse_args()
    replicas = max(1, args.replicas)

    data = synthweb(
        num_texts=80,
        mean_length=120,
        vocab_size=512,
        duplicate_rate=0.2,
        span_length=48,
        mutation_rate=0.04,
        seed=7,
    )
    engine = NearDupEngine.from_corpus(data.corpus, k=8, t=20, vocab_size=512)
    root = Path(tempfile.mkdtemp(prefix="router_smoke_"))
    ports = free_ports(NUM_SHARDS * replicas + 1)
    shard_ports, router_port = ports[:-1], ports[-1]

    # build_shard_fleet assigns sequential ports from base_port; rewrite
    # the map with the independently-reserved ports instead.
    shard_map = build_shard_fleet(
        engine,
        root,
        num_shards=NUM_SHARDS,
        base_port=shard_ports[0],
        replicas_per_shard=replicas,
    )
    entries = []
    taken = iter(shard_ports)
    for entry in shard_map:
        entries.append(
            ShardEntry(
                name=entry.name,
                first_text=entry.first_text,
                count=entry.count,
                replicas=tuple(
                    Replica("127.0.0.1", next(taken)) for _ in entry.replicas
                ),
            )
        )
    shard_map = ShardMap(entries)
    shard_map.save(root / "shardmap.json")
    print(
        "fleet: "
        f"{[(e.name, [r.port for r in e.replicas], e.first_text, e.count) for e in entries]}"
    )

    shards = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve-shards", str(root),
            "--replicas", str(replicas),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    router = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "route",
            str(root / "shardmap.json"), "--port", str(router_port),
            "--policy", "round-robin" if replicas > 1 else "pick-first",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        client = ServiceClient("127.0.0.1", router_port, timeout=5)

        def healthy():
            for child, name in ((shards, "serve-shards"), (router, "route")):
                if child.poll() is not None:
                    output = child.stdout.read().decode(errors="replace")
                    raise SystemExit(f"{name} died during startup:\n{output}")
            try:
                health = client.health()
            except OSError:
                return None
            if health["shards_healthy"] != NUM_SHARDS:
                return None
            degraded = any(
                shard["replicas_healthy"] < shard["replicas_total"]
                for shard in health["shards"]
            )
            return None if degraded else health

        health = wait_for(healthy, "every replica healthy behind the router")
        assert health["role"] == "router"
        assert health["texts"] == engine.num_texts
        assert health["replicas_total"] == NUM_SHARDS * replicas
        print(
            f"health: {health['shards_healthy']}/{health['shards_total']} "
            f"shards ({health['replicas_total']} replicas), "
            f"{health['texts']} texts"
        )

        direct = ShardedSearcher(
            ShardedIndex.build(
                data.corpus,
                engine.index.family,
                engine.index.t,
                num_shards=NUM_SHARDS,
                vocab_size=512,
            )
        )
        checked = 0
        for text_id in (0, 40, 79):  # texts owned by both shards
            query = np.asarray(data.corpus[text_id])[:40]
            for theta in (0.6, 0.8):
                served = client.search(query, theta)
                assert served["ok"] is True and "partial" not in served
                want = result_to_wire(direct.search(query, theta))
                assert json.dumps(served["result"], sort_keys=True) == json.dumps(
                    want, sort_keys=True
                ), f"routed result differs from direct (text {text_id}, theta {theta})"
                checked += 1
        print(f"search: {checked} routed results byte-identical to direct")

        batch_queries = [np.asarray(data.corpus[i])[:32] for i in (5, 60)]
        served_batch = client.batch(batch_queries, 0.7)
        for position, query in enumerate(batch_queries):
            want = result_to_wire(direct.search(query, 0.7))
            got = served_batch["results"][position]
            assert json.dumps(got, sort_keys=True) == json.dumps(
                want, sort_keys=True
            ), f"routed batch result {position} differs from direct"
        print("batch: routed results byte-identical to direct")

        stats = client.stats()
        assert stats["router"]["completed"] >= checked
        assert set(stats["shards"]) == {"shard0", "shard1"}
        assert stats["aggregate"]["completed"] >= checked * NUM_SHARDS
        missing = set(ServiceStats.COUNTERS) - set(stats["aggregate"])
        assert not missing, f"aggregate lacks service counters {sorted(missing)}"
        missing = {f.name for f in fields(RouterConfig)} - set(stats["config"])
        assert not missing, f"config lacks RouterConfig fields {sorted(missing)}"
        # satellite: per-replica pool counters surface through /stats
        for shard_name, routing in stats["routing"].items():
            for snap in routing["replicas"]:
                assert snap["pool"]["opened"] >= 1, (shard_name, snap)
        print(
            f"stats: router completed {stats['router']['completed']}, "
            f"fleet completed {stats['aggregate']['completed']}, "
            f"fan-out p50 {stats['router']['shard_latency']['p50_ms']:.1f} ms"
        )

        if replicas > 1:
            dead = kill_one_replica(shard_map)
            print(f"killed replica {dead} (SIGKILL) mid-run")
            query = np.asarray(data.corpus[40])[:40]
            want = json.dumps(
                result_to_wire(direct.search(query, 0.8)), sort_keys=True
            )
            # enough requests that round-robin keeps re-selecting the dead
            # endpoint until its breaker opens (default threshold 3)
            for _ in range(10):
                served = client.search(query, 0.8)
                assert served["ok"] is True and "partial" not in served
                assert json.dumps(served["result"], sort_keys=True) == want, (
                    "degraded routed result differs from direct"
                )
            stats = client.stats()
            assert stats["router"]["failovers"] >= 1, stats["router"]
            assert stats["router"]["breaker_trips"] >= 1, stats["router"]
            snaps = {
                snap["endpoint"]: snap
                for snap in stats["routing"]["shard0"]["replicas"]
            }
            assert snaps[dead]["breaker"]["state"] == "open", snaps[dead]
            health = client.health()
            assert health["shards_healthy"] == NUM_SHARDS
            shard0 = next(s for s in health["shards"] if s["name"] == "shard0")
            assert shard0["ok"] and shard0["replicas_healthy"] == replicas - 1
            print(
                "degraded: 10/10 answers byte-identical, "
                f"{stats['router']['failovers']} failovers, "
                f"breaker open on {dead}, shard0 still ok "
                f"({shard0['replicas_healthy']}/{shard0['replicas_total']} replicas)"
            )
        client.close()
    finally:
        shutdown(router, "route")
        shutdown(shards, "serve-shards")
    print("clean shutdown (exit 0 for router and fleet)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
