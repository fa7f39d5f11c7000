"""Posting-codec benchmark: format v2 (packed) vs. format v1 (raw).

ISSUE 5 acceptance benchmark, three measurements on a synthetic Zipf
corpus:

* **Payload size** — bytes of ``index.postings.bin`` written by each
  codec for the same index; the packed payload must be >= 2.5x smaller.
* **Decode throughput** — full-index decode (every list through
  :meth:`~repro.index.storage.DiskInvertedIndex.load_list`) in million
  postings/sec, packed vs. the raw memmap copy it replaces.
* **Cold-query p50/p95** — single-query latency through a freshly
  opened on-disk reader per codec (matches are asserted identical
  while measuring); the bet is that fewer bytes through the memmap
  more than pay for the unpack kernel.
* **Encode throughput** — every list of the index encoded one
  :func:`~repro.index.codec.encode_list` call at a time vs. one
  grouped :func:`~repro.index.codec.encode_lists` call over all of
  them; the two outputs are asserted byte-identical.

Run: ``PYTHONPATH=src python benchmarks/bench_posting_codec.py [--quick]``
Writes ``BENCH_posting_codec.json`` next to the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.synthetic import synthweb
from repro.index.builder import build_memory_index
from repro.index.codec import encode_list, encode_lists
from repro.index.storage import DiskInvertedIndex, write_index

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_posting_codec.json"

#: Acceptance gate: packed payload must be at least this much smaller.
SIZE_GATE = 2.5


def build_workload(quick: bool):
    num_texts = 150 if quick else 2500
    data = synthweb(
        num_texts=num_texts,
        mean_length=160 if quick else 320,
        vocab_size=4096,
        duplicate_rate=0.35,
        span_length=64,
        mutation_rate=0.03,
        seed=29,
    )
    family = HashFamily(k=16 if quick else 32, seed=3)
    index = build_memory_index(data.corpus, family, t=25, vocab_size=4096)
    return data, family, index


def bench_size(index, base: Path) -> dict:
    """Write both codecs, compare payload bytes and write time."""
    out = {}
    for codec in ("raw", "packed"):
        directory = base / codec
        begin = time.perf_counter()
        write_index(index, directory, codec=codec)
        write_seconds = time.perf_counter() - begin
        payload = (directory / "index.postings.bin").stat().st_size
        out[codec] = {
            "payload_bytes": int(payload),
            "write_seconds": write_seconds,
            "bits_per_posting": 8 * payload / max(index.num_postings, 1),
        }
    out["size_ratio"] = (
        out["raw"]["payload_bytes"] / out["packed"]["payload_bytes"]
        if out["packed"]["payload_bytes"]
        else 0.0
    )
    return out


def bench_decode(base: Path, num_postings: int, repeats: int) -> dict:
    """Full-index decode throughput per codec (every list loaded once)."""
    out = {}
    for codec in ("raw", "packed"):
        reader = DiskInvertedIndex(base / codec)

        def run_decode():
            total = 0
            for func in range(reader.family.k):
                for minhash in reader.list_keys(func):
                    total += reader.load_list(func, int(minhash)).size
            return total

        assert run_decode() == num_postings  # warm page cache + sanity
        seconds = min(_timed(run_decode) for _ in range(repeats))
        out[codec] = {
            "seconds": seconds,
            "mpostings_per_s": num_postings / seconds / 1e6,
        }
    out["decode_slowdown"] = (
        out["packed"]["seconds"] / out["raw"]["seconds"]
        if out["raw"]["seconds"]
        else 0.0
    )
    return out


def bench_encode(index, repeats: int) -> dict:
    """Per-list ``encode_list`` vs. one grouped ``encode_lists`` call."""
    _, _, postings, bounds = index.all_lists()
    lists = [postings[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    per_list = [encode_list(part) for part in lists]
    grouped = encode_lists(postings, bounds)
    for name in ("data", "widths", "first_texts"):
        joined = np.concatenate([getattr(encoded, name) for encoded in per_list])
        assert np.array_equal(getattr(grouped, name), joined), (
            f"encode_lists {name} differs from per-list encode_list"
        )
    out = {"lists": len(lists)}
    for name, run in (
        ("encode_list", lambda: [encode_list(part) for part in lists]),
        ("encode_lists", lambda: encode_lists(postings, bounds)),
    ):
        seconds = min(_timed(run) for _ in range(repeats))
        out[name] = {
            "seconds": seconds,
            "mpostings_per_s": postings.size / seconds / 1e6,
        }
    out["speedup"] = out["encode_list"]["seconds"] / out["encode_lists"]["seconds"]
    return out


def _timed(fn) -> float:
    begin = time.perf_counter()
    fn()
    return time.perf_counter() - begin


def bench_cold_queries(data, base: Path, theta: float, num_queries: int) -> dict:
    """Per-query latency through a freshly opened reader per codec."""
    queries = [
        np.asarray(data.corpus[position % len(data.corpus)])[:64]
        for position in range(num_queries)
    ]
    out = {}
    results = {}
    for codec in ("raw", "packed"):
        # One fresh reader per codec: the memmap page cache is shared
        # with the OS, but directory parsing and block decodes are cold.
        searcher = NearDuplicateSearcher(DiskInvertedIndex(base / codec))
        latencies = []
        codec_results = []
        for query in queries:
            begin = time.perf_counter()
            result = searcher.search(query, theta)
            latencies.append(time.perf_counter() - begin)
            codec_results.append(result.matches)
        ordered = np.sort(latencies)
        results[codec] = codec_results
        out[codec] = {
            "queries": num_queries,
            "p50_ms": 1e3 * float(np.quantile(ordered, 0.50)),
            "p95_ms": 1e3 * float(np.quantile(ordered, 0.95)),
            "mean_ms": 1e3 * float(np.mean(ordered)),
        }
    assert results["raw"] == results["packed"], "codec search results diverge"
    out["p50_ratio_packed_vs_raw"] = (
        out["packed"]["p50_ms"] / out["raw"]["p50_ms"]
        if out["raw"]["p50_ms"]
        else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (seconds, not minutes)"
    )
    parser.add_argument("--theta", type=float, default=0.7)
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    data, family, index = build_workload(args.quick)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        size = bench_size(index, base)
        decode = bench_decode(
            base, index.num_postings, repeats=2 if args.quick else 5
        )
        cold = bench_cold_queries(
            data, base, args.theta, 20 if args.quick else 100
        )
    encode = bench_encode(index, repeats=2 if args.quick else 5)

    print(
        f"size: raw {size['raw']['payload_bytes']} B "
        f"({size['raw']['bits_per_posting']:.1f} bits/posting), "
        f"packed {size['packed']['payload_bytes']} B "
        f"({size['packed']['bits_per_posting']:.1f} bits/posting) "
        f"-> {size['size_ratio']:.2f}x smaller"
    )
    print(
        f"decode: raw {decode['raw']['mpostings_per_s']:.1f} Mp/s, "
        f"packed {decode['packed']['mpostings_per_s']:.1f} Mp/s "
        f"({decode['decode_slowdown']:.2f}x slower)"
    )
    print(
        f"encode ({encode['lists']} lists): per-list "
        f"{encode['encode_list']['mpostings_per_s']:.2f} Mp/s, grouped "
        f"{encode['encode_lists']['mpostings_per_s']:.2f} Mp/s "
        f"({encode['speedup']:.1f}x, byte-identical)"
    )
    print(
        f"cold query p50: raw {cold['raw']['p50_ms']:.2f} ms, "
        f"packed {cold['packed']['p50_ms']:.2f} ms "
        f"(packed/raw {cold['p50_ratio_packed_vs_raw']:.2f})"
    )

    payload = {
        "benchmark": "bench_posting_codec",
        "quick": args.quick,
        "theta": args.theta,
        "num_postings": index.num_postings,
        "size": size,
        "decode": decode,
        "encode": encode,
        "cold_query": cold,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.output}")

    # Acceptance gate (full scale only): packed payload >= 2.5x smaller
    # than raw, with byte-identical search results (asserted above).
    if not args.quick:
        ok = size["size_ratio"] >= SIZE_GATE
        print(
            f"acceptance: size ratio {size['size_ratio']:.2f}x "
            f"(>= {SIZE_GATE} required) -> {'PASS' if ok else 'FAIL'}"
        )
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
