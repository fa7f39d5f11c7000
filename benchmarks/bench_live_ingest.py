"""Live-index benchmark: ingest throughput, concurrency, compaction.

ISSUE 8 acceptance benchmark.  Three sections over one synthetic
stream:

**Ingest throughput** — appends the stream into a fresh live root once
per WAL ``ack_policy`` (``always`` fsyncs every ack, ``batch``
amortizes over 32, ``none`` leaves durability to the OS), recording
texts/sec and the WAL fsync count.  This quantifies the knob the
serving docs tell operators to turn.

**Concurrent ingest + query** — measures query throughput over a
sealed live index while an ingest thread streams appends into the same
index, against an idle baseline.  Acceptance (>= 2 cores): concurrent
qps >= 30% of idle qps.  On a single core the two threads time-share
one CPU and the ratio measures the scheduler, not the index, so the
gate is recorded as skipped with the measured ``cpu_count`` (PR 6
convention); the ratio is still written.

**Compaction read amplification** — the same query set against R
sealed runs and then after ``compact(all_runs=True)``.  Gates (always
binding): results byte-identical across compaction, compaction reduces
per-query I/O calls (R runs cost ~R point reads per key; one run costs
one), and bytes read do not regress past block-framing noise.

Run: ``PYTHONPATH=src python benchmarks/bench_live_ingest.py [--quick]``
Writes ``BENCH_live_ingest.json`` next to the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.hashing import HashFamily
from repro.index.lsm import LiveIndex, LiveIndexConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_live_ingest.json"

VOCAB = 2048
T = 20
FAMILY = HashFamily(k=6, seed=13)
WINDOW = 40


def make_stream(num_texts: int, seed: int = 29):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, VOCAB, size=int(rng.integers(60, 220)), dtype=np.uint32)
        for _ in range(num_texts)
    ]


def make_queries(texts, count: int, seed: int = 31):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        text = texts[int(rng.integers(len(texts)))]
        start = int(rng.integers(max(1, text.size - WINDOW)))
        queries.append(text[start : start + WINDOW])
    return queries


def fresh_root(base: Path, name: str, **config) -> LiveIndex:
    root = base / name
    shutil.rmtree(root, ignore_errors=True)
    return LiveIndex(
        root, family=FAMILY, t=T, vocab_size=VOCAB,
        config=LiveIndexConfig(background_compaction=False, **config),
    )


def bench_ingest(base: Path, texts, batch: int, seal_postings: int):
    rows = []
    for policy in ("always", "batch", "none"):
        live = fresh_root(
            base, f"ingest-{policy}",
            ack_policy=policy, seal_threshold_postings=seal_postings,
        )
        start = time.perf_counter()
        for lo in range(0, len(texts), batch):
            live.append_texts(texts[lo : lo + batch])
        live.flush()
        seconds = time.perf_counter() - start
        status = live.status()
        rows.append(
            {
                "ack_policy": policy,
                "texts": len(texts),
                "batch": batch,
                "seconds": seconds,
                "texts_per_sec": len(texts) / seconds,
                "wal_syncs": status["wal_syncs"],
                "seals": status["seals"],
                "runs": len(live.runs),
            }
        )
        live.close()
        print(
            f"ingest ack={policy:>6}: {rows[-1]['texts_per_sec']:>8.1f} "
            f"texts/s, {rows[-1]['wal_syncs']} fsyncs, "
            f"{rows[-1]['seals']} seals"
        )
    return rows


def run_queries(searcher, queries, theta: float):
    checksum = 0
    start = time.perf_counter()
    for query in queries:
        result = searcher.search(query, theta)
        for match in result.matches:
            for r in match.rectangles:
                checksum ^= hash(
                    (match.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
                )
    seconds = time.perf_counter() - start
    return len(queries) / seconds, checksum


def bench_concurrent(base: Path, texts, queries, theta: float, seal_postings: int):
    split = len(texts) // 2
    live = fresh_root(
        base, "concurrent", seal_threshold_postings=seal_postings,
        ack_policy="batch",
    )
    live.append_texts(texts[:split])
    live.seal()
    searcher = live.searcher()
    run_queries(searcher, queries[:8], theta)  # warm caches / lazy state

    idle_qps, _ = run_queries(searcher, queries, theta)

    stop = threading.Event()
    ingested = [0]

    def ingest_loop():
        position = split
        while not stop.is_set():
            live.append_texts([texts[position % len(texts)]])
            ingested[0] += 1
            position += 1

    thread = threading.Thread(target=ingest_loop, daemon=True)
    thread.start()
    concurrent_qps, _ = run_queries(searcher, queries, theta)
    stop.set()
    thread.join(timeout=30)
    live.close()
    ratio = concurrent_qps / idle_qps
    print(
        f"concurrent: idle {idle_qps:.1f} qps, with ingest "
        f"{concurrent_qps:.1f} qps (ratio {ratio:.2f}, "
        f"{ingested[0]} texts ingested meanwhile)"
    )
    return {
        "idle_qps": idle_qps,
        "concurrent_qps": concurrent_qps,
        "qps_ratio": ratio,
        "texts_ingested_during_run": ingested[0],
    }


def bench_read_amplification(base: Path, texts, queries, theta: float,
                             seal_postings: int):
    live = fresh_root(
        base, "amplification", seal_threshold_postings=seal_postings,
        ack_policy="none",
    )
    batch = max(1, len(texts) // 64)
    for lo in range(0, len(texts), batch):
        live.append_texts(texts[lo : lo + batch])
    live.seal()

    def source_io(snapshot):
        # The union's own io_stats counts one call per union read,
        # however many runs it spans; read amplification lives in the
        # per-run readers (R runs -> R read calls per union read), so
        # sum those.
        calls = nbytes = 0
        for source in snapshot.sources:
            stats = getattr(source, "io_stats", None)
            if stats is not None:
                calls += stats.read_calls
                nbytes += stats.bytes_read
        return calls, nbytes

    def measure():
        searcher = live.searcher()
        calls0, bytes0 = source_io(live.snapshot())
        stats_sums = {"lists_loaded": 0, "point_reads": 0}
        checksum = 0
        start = time.perf_counter()
        for query in queries:
            result = searcher.search(query, theta)
            stats_sums["lists_loaded"] += result.stats.lists_loaded
            stats_sums["point_reads"] += result.stats.point_reads
            for match in result.matches:
                for r in match.rectangles:
                    checksum ^= hash(
                        (match.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
                    )
        seconds = time.perf_counter() - start
        calls1, bytes1 = source_io(live.snapshot())
        return {
            "runs": len(live.runs),
            "qps": len(queries) / seconds,
            "read_calls": calls1 - calls0,
            "bytes_read": bytes1 - bytes0,
            "lists_loaded": stats_sums["lists_loaded"],
            "point_reads": stats_sums["point_reads"],
        }, checksum

    before, checksum_before = measure()
    live.compact(all_runs=True)
    after, checksum_after = measure()
    live.close()
    print(
        f"read amp: {before['runs']} runs -> {after['runs']}; io calls "
        f"{before['read_calls']} -> {after['read_calls']}, bytes "
        f"{before['bytes_read']} -> {after['bytes_read']}"
    )
    return {
        "before": before,
        "after": after,
        "results_unchanged": checksum_before == checksum_after,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny scale for CI; gates are recorded as skipped",
    )
    parser.add_argument("--texts", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--theta", type=float, default=0.8)
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    num_texts = args.texts or (200 if args.quick else 2000)
    num_queries = args.queries or (40 if args.quick else 300)
    seal_postings = 20_000 if args.quick else 100_000
    cpu_count = os.cpu_count() or 1

    texts = make_stream(num_texts)
    queries = make_queries(texts, num_queries)
    base = Path(tempfile.mkdtemp(prefix="bench_live_"))
    try:
        ingest_rows = bench_ingest(base, texts, batch=32,
                                   seal_postings=seal_postings)
        concurrent = bench_concurrent(base, texts, queries, args.theta,
                                      seal_postings)
        amplification = bench_read_amplification(
            base, texts, queries, args.theta,
            seal_postings=seal_postings // 8,
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)

    payload = {
        "benchmark": "bench_live_ingest",
        "quick": args.quick,
        "texts": num_texts,
        "queries": num_queries,
        "theta": args.theta,
        "cpu_count": cpu_count,
        "ingest": ingest_rows,
        "concurrent": concurrent,
        "read_amplification": amplification,
    }

    failures = []
    gates: dict = {}
    # Correctness across compaction binds at every scale: compaction
    # must be invisible to query results.
    ok_results = amplification["results_unchanged"]
    gates["compaction_results_unchanged"] = {"pass": ok_results}
    if not ok_results:
        failures.append("query results changed across compaction")

    if args.quick:
        gates["concurrent_qps"] = {"skipped": "quick scale"}
        gates["read_amplification"] = {"skipped": "quick scale"}
    else:
        # R runs cost ~R point reads per key; one run costs one.  Bytes
        # are only bounded (the posting payload itself is the same data
        # either way — the saving is in calls and block framing).
        reduced_calls = (
            amplification["after"]["read_calls"]
            < amplification["before"]["read_calls"]
        )
        bytes_bounded = (
            amplification["after"]["bytes_read"]
            <= amplification["before"]["bytes_read"] * 1.25
        )
        ok_amp = reduced_calls and bytes_bounded
        gates["read_amplification"] = {
            "read_calls_before": amplification["before"]["read_calls"],
            "read_calls_after": amplification["after"]["read_calls"],
            "bytes_before": amplification["before"]["bytes_read"],
            "bytes_after": amplification["after"]["bytes_read"],
            "pass": ok_amp,
        }
        if not ok_amp:
            failures.append(
                "compaction did not reduce per-query I/O "
                f"(calls {amplification['before']['read_calls']} -> "
                f"{amplification['after']['read_calls']}, bytes "
                f"{amplification['before']['bytes_read']} -> "
                f"{amplification['after']['bytes_read']})"
            )
        ratio = concurrent["qps_ratio"]
        if cpu_count >= 2:
            ok_ratio = ratio >= 0.3
            gates["concurrent_qps"] = {
                "ratio": ratio, "required": 0.3, "pass": ok_ratio,
            }
            if not ok_ratio:
                failures.append(
                    f"concurrent-query qps ratio {ratio:.2f} < 0.3"
                )
        else:
            gates["concurrent_qps"] = {
                "ratio": ratio,
                "required": 0.3,
                "skipped": (
                    f"host has {cpu_count} cpu(s); an ingest thread and a "
                    "query thread time-share one core, so the ratio "
                    "measures the scheduler, not the index"
                ),
            }
            print(f"concurrent gate skipped: cpu_count={cpu_count} < 2 "
                  f"(measured ratio {ratio:.2f})")
    payload["gates"] = gates

    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
