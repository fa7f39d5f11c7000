"""Service throughput benchmark: micro-batching and prefork.

Acceptance benchmark of the service tier, in two sections:

**Micro-batching** (ISSUE 3) — a real :class:`SearchService` (an
in-process :class:`ServiceRunner`, real HTTP over loopback) driven by
blocking :class:`ServiceClient` threads — the closed-loop shape of a
memorization-audit fleet hammering one shared index:

* ``sequential``    — 1 client issuing every request back to back;
* ``concurrent_off``— 32 clients, micro-batching disabled
  (``max_batch=1``): every request plans alone;
* ``concurrent_on`` — 32 clients, micro-batching enabled
  (``max_batch=16``): requests that arrive while a batch runs coalesce
  into the next planned executor batch, so sketch dedup and list
  pinning apply *across clients*.

The query stream is *bursty*, not uniformly duplicated: an audit
fleet's replicas work through the same generation windows at the same
time, so duplicate queries arrive concurrently.  Each fleet-wide round
of requests draws from a small per-round hot set (``clients/8``
distinct windows), which is exactly the cross-client redundancy
micro-batching exists to exploit — and the redundancy a per-request
path cannot see, cache-hot or not.

**Prefork scaling** (ISSUE 6) — the same closed-loop drive against a
real :class:`PreforkServer` fleet at equal offered load, 1 worker vs.
4 workers.  With the index served from the page-aligned mmap sidecar,
every worker shares one page-cache copy, so scaling is bounded by
cores, not memory.  Acceptance (full scale, >= 4 cores): 4-worker qps
>= 3x 1-worker qps with p95 no worse; on smaller hosts the gate is
recorded as skipped with the measured ``cpu_count``.

Run: ``PYTHONPATH=src python benchmarks/bench_service.py [--smoke|--quick]``
Writes ``BENCH_service.json`` next to the repository root.  ``--quick``
fails unless ``concurrent_on`` coalesces (mean batch > 1) and serves at
least ``concurrent_off``'s qps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.hashing import HashFamily
from repro.corpus.synthetic import synthweb
from repro.engine import NearDupEngine
from repro.index.builder import build_memory_index
from repro.index.storage import DiskInvertedIndex, write_index
from repro.service import (
    PreforkServer,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"

WINDOW = 64
CONCURRENT_CLIENTS = 32
#: Half the fleet: closed-loop clients re-request in lock-step, so while
#: one half's batch runs, the other half's requests queue up for the
#: next.  A batch as large as the fleet would serialize them instead.
ON_BATCH = CONCURRENT_CLIENTS // 2


def build_engine(smoke: bool) -> tuple[NearDupEngine, list[np.ndarray]]:
    """Disk-backed engine + duplicate-free window pool source."""
    num_texts = 120 if smoke else 1500
    data = synthweb(
        num_texts=num_texts,
        mean_length=200 if smoke else 300,
        vocab_size=4096,
        duplicate_rate=0.15,
        span_length=WINDOW,
        mutation_rate=0.05,
        seed=11,
    )
    family = HashFamily(k=16 if smoke else 32, seed=5)
    index = build_memory_index(data.corpus, family, t=25, vocab_size=4096)
    directory = Path(tempfile.mkdtemp(prefix="bench_service_"))
    write_index(index, directory)
    engine = NearDupEngine(data.corpus, DiskInvertedIndex(directory))

    windows: list[np.ndarray] = []
    for text_id in range(len(data.corpus)):
        text = np.asarray(data.corpus[text_id])
        for start in range(0, text.size - WINDOW + 1, WINDOW):
            windows.append(text[start : start + WINDOW])
    return engine, windows


def make_queries(windows, total: int, clients: int, rng) -> list[np.ndarray]:
    """A bursty duplicate-heavy request stream.

    The stream is built in fleet-wide rounds of ``clients`` requests;
    each round samples with replacement from a fresh hot set of
    ``clients/8`` distinct windows.  Sharded round-robin across the
    client threads, one round's requests are issued concurrently — the
    duplication lands inside the micro-batcher's coalescing window,
    where real audit sweeps put it.
    """
    rounds = (total + clients - 1) // clients
    hot_size = max(1, clients // 8)
    stream: list[np.ndarray] = []
    for _ in range(rounds):
        hot = [
            windows[i]
            for i in rng.choice(len(windows), min(hot_size, len(windows)),
                                replace=False)
        ]
        stream.extend(hot[i] for i in rng.integers(0, len(hot), size=clients))
    return stream[:total]


def drive_closed_loop(
    host: str,
    port: int,
    queries: list[np.ndarray],
    clients: int,
    theta: float,
) -> tuple[float, list[float]]:
    """Shard ``queries`` round-robin over ``clients`` closed-loop threads."""
    shards = [queries[position::clients] for position in range(clients)]
    latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def drive(shard: list[np.ndarray]) -> None:
        try:
            with ServiceClient(host, port) as client:
                barrier.wait()
                for tokens in shard:
                    begin = time.perf_counter()
                    client.search(tokens, theta)
                    elapsed = time.perf_counter() - begin
                    with lock:
                        latencies.append(elapsed)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(shard,)) for shard in shards]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return wall, latencies


def run_scenario(
    engine: NearDupEngine,
    queries: list[np.ndarray],
    *,
    name: str,
    clients: int,
    max_batch: int,
    theta: float,
) -> dict:
    """One fresh service instance, closed-loop clients, wall-clock qps."""
    config = ServiceConfig(
        port=0,
        max_batch=max_batch,
        max_queue=max(256, 2 * clients),
        warmup_lists=64,
    )
    with ServiceRunner(engine, config) as runner:
        wall, latencies = drive_closed_loop(
            runner.host, runner.port, queries, clients, theta
        )
        snapshot = runner.call(runner.service.stats.snapshot)
        cache = runner.call(lambda: runner.service.searcher.index.stats().to_dict())

    observed = np.asarray(latencies)
    return {
        "scenario": name,
        "clients": clients,
        "max_batch": max_batch,
        "requests": len(queries),
        "seconds": wall,
        "qps": len(queries) / wall if wall > 0 else 0.0,
        "latency_ms": {
            "p50": float(np.percentile(observed, 50)) * 1e3,
            "p95": float(np.percentile(observed, 95)) * 1e3,
            "mean": float(observed.mean()) * 1e3,
        },
        "mean_batch_size": snapshot["mean_batch_size"],
        "batches": snapshot["batches"],
        "cache_hit_rate": cache["hit_rate"],
    }


def run_prefork_scenario(
    engine: NearDupEngine,
    queries: list[np.ndarray],
    *,
    name: str,
    clients: int,
    procs: int,
    max_batch: int,
    theta: float,
) -> dict:
    """A real forked fleet over the shared mapping, equal offered load."""
    config = ServiceConfig(
        port=0,
        procs=procs,
        max_batch=max_batch,
        max_queue=max(256, 2 * clients),
        warmup_lists=64,
    )
    server = PreforkServer(engine, config)
    server.start()
    try:
        server.wait_ready()
        wall, latencies = drive_closed_loop(
            "127.0.0.1", server.port, queries, clients, theta
        )
        with ServiceClient("127.0.0.1", server.port, timeout=15) as client:
            cluster = client.stats().get("cluster", {})
    finally:
        server.stop()
    observed = np.asarray(latencies)
    return {
        "scenario": name,
        "clients": clients,
        "procs": procs,
        "max_batch": max_batch,
        "requests": len(queries),
        "seconds": wall,
        "qps": len(queries) / wall if wall > 0 else 0.0,
        "latency_ms": {
            "p50": float(np.percentile(observed, 50)) * 1e3,
            "p95": float(np.percentile(observed, 95)) * 1e3,
            "mean": float(observed.mean()) * 1e3,
        },
        "cluster_completed": cluster.get("completed", 0),
        "cluster_alive": cluster.get("alive", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", "--quick", dest="smoke", action="store_true",
        help="CI scale (seconds, not minutes)",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument(
        "--prefork-workers", type=int, default=4,
        help="fleet size of the scaled prefork scenario",
    )
    parser.add_argument("--theta", type=float, default=0.8)
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    total = args.requests or (96 if args.smoke else 512)
    engine, windows = build_engine(args.smoke)
    queries = make_queries(
        windows, total, CONCURRENT_CLIENTS, np.random.default_rng(0)
    )

    scenarios = [
        dict(name="sequential", clients=1, max_batch=ON_BATCH),
        dict(name="concurrent_off", clients=CONCURRENT_CLIENTS, max_batch=1),
        dict(name="concurrent_on", clients=CONCURRENT_CLIENTS,
             max_batch=ON_BATCH),
    ]
    rows = []
    print(
        f"{'scenario':>15} {'clients':>8} {'qps':>8} {'p50_ms':>8} "
        f"{'p95_ms':>8} {'batch':>6} {'cache':>6}"
    )
    for scenario in scenarios:
        row = run_scenario(engine, queries, theta=args.theta, **scenario)
        rows.append(row)
        print(
            f"{row['scenario']:>15} {row['clients']:>8} {row['qps']:>8.1f} "
            f"{row['latency_ms']['p50']:>8.2f} {row['latency_ms']['p95']:>8.2f} "
            f"{row['mean_batch_size']:>6.2f} {row['cache_hit_rate']:>6.2f}"
        )

    # -- prefork scaling: 1 worker vs. N workers, equal offered load --
    cpu_count = os.cpu_count() or 1
    fleet = args.prefork_workers
    prefork_rows = []
    for procs in (1, fleet):
        row = run_prefork_scenario(
            engine,
            queries,
            name=f"prefork_{procs}",
            clients=CONCURRENT_CLIENTS,
            procs=procs,
            max_batch=ON_BATCH,
            theta=args.theta,
        )
        prefork_rows.append(row)
        print(
            f"{row['scenario']:>15} {row['clients']:>8} {row['qps']:>8.1f} "
            f"{row['latency_ms']['p50']:>8.2f} {row['latency_ms']['p95']:>8.2f} "
            f"{'':>6} {'':>6}"
        )
    prefork_single, prefork_scaled = prefork_rows
    prefork_speedup = (
        prefork_scaled["qps"] / prefork_single["qps"]
        if prefork_single["qps"]
        else 0.0
    )

    on = next(row for row in rows if row["scenario"] == "concurrent_on")
    off = next(row for row in rows if row["scenario"] == "concurrent_off")
    speedup = on["qps"] / off["qps"] if off["qps"] else 0.0
    payload = {
        "benchmark": "bench_service",
        "smoke": args.smoke,
        "requests": total,
        "prefork_workers": fleet,
        "cpu_count": cpu_count,
        "theta": args.theta,
        "rows": rows + prefork_rows,
        "batching_speedup_qps": speedup,
        "prefork_speedup_qps": prefork_speedup,
        "prefork_p95_ms": {
            "single": prefork_single["latency_ms"]["p95"],
            "scaled": prefork_scaled["latency_ms"]["p95"],
        },
    }

    # Acceptance gates.  At smoke scale only the coalescing guard binds:
    # under 32 clients, requests that arrive while a batch runs must
    # ride the next one, and that must not cost qps.  The batching and
    # prefork gates bind at full scale only; the prefork gate
    # additionally needs enough cores to be physically attainable — a
    # 4-worker fleet cannot triple qps on fewer than 4 cores, so on
    # smaller hosts it is recorded as skipped (with the measured
    # cpu_count) rather than failed.
    failures = []
    if args.smoke:
        coalesces = on["mean_batch_size"] > 1.0 and on["qps"] >= off["qps"]
        payload["gates"] = {
            "coalescing": {
                "mean_batch_size": on["mean_batch_size"],
                "speedup": speedup,
                "pass": coalesces,
            },
        }
        if not coalesces:
            failures.append(
                f"concurrent_on mean batch {on['mean_batch_size']:.2f} "
                f"(> 1 required) at {speedup:.2f}x concurrent_off qps "
                "(>= 1.0x required)"
            )
        print(
            f"smoke: batching {speedup:.2f}x at mean batch "
            f"{on['mean_batch_size']:.2f}, prefork x{fleet} "
            f"{prefork_speedup:.2f}x"
        )
    else:
        gates: dict = {}
        ok_batching = speedup >= 1.5
        gates["batching"] = {"speedup": speedup, "required": 1.5, "pass": ok_batching}
        if not ok_batching:
            failures.append(f"batching speedup {speedup:.2f}x < 1.5x")
        if cpu_count >= 4:
            p95_ok = (
                prefork_scaled["latency_ms"]["p95"]
                <= 1.10 * prefork_single["latency_ms"]["p95"]
            )
            ok_prefork = prefork_speedup >= 3.0 and p95_ok
            gates["prefork"] = {
                "speedup": prefork_speedup,
                "required": 3.0,
                "p95_no_worse": p95_ok,
                "pass": ok_prefork,
            }
            if not ok_prefork:
                failures.append(
                    f"prefork x{fleet} speedup {prefork_speedup:.2f}x / "
                    f"p95_no_worse={p95_ok} (>= 3.0x and no-worse p95 required)"
                )
        else:
            gates["prefork"] = {
                "speedup": prefork_speedup,
                "required": 3.0,
                "skipped": f"host has {cpu_count} cpu(s); a {fleet}-worker "
                "fleet cannot reach 3x on < 4 cores",
            }
            print(
                f"prefork gate skipped: cpu_count={cpu_count} < 4 "
                f"(measured {prefork_speedup:.2f}x recorded)"
            )
        payload["gates"] = gates

    Path(args.output).write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"acceptance FAIL: {failure}")
        return 1
    print("acceptance: all applicable gates PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
