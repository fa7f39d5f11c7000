"""Throughput benchmark: vectorized, streamed index construction.

Measures the build on a synthetic corpus (paper Figure 2(i)-(l)
workload shape):

* **Window generation** — tokens/sec of the production batch path
  (:func:`~repro.index.builder.generate_corpus_postings`: chunks of
  texts, all ``k`` rows per kernel call) vs. the per-function
  monotone-stack loop, at ``k = 64``;
* **In-memory build** — end-to-end texts/sec of the streaming
  :func:`~repro.index.builder.build_memory_index`;
* **External build** — wall seconds and per-phase split of the
  out-of-core :func:`~repro.index.external.build_external_index`.

Run: ``PYTHONPATH=src python benchmarks/bench_build_throughput.py [--tiny]``
Writes ``BENCH_build_throughput.json`` next to the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.compact_windows import generate_compact_windows_stack
from repro.core.hashing import HashFamily
from repro.corpus.synthetic import synthweb
from repro.index.builder import (
    BuildStats,
    build_memory_index,
    generate_corpus_postings,
)
from repro.index.external import ExternalBuildConfig, build_external_index

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_build_throughput.json"

GENERATION_K = 64


def make_corpus(tiny: bool):
    data = synthweb(
        num_texts=120 if tiny else 1200,
        mean_length=150 if tiny else 400,
        vocab_size=4096,
        duplicate_rate=0.15,
        span_length=64,
        mutation_rate=0.05,
        seed=21,
    )
    return data.corpus


def bench_generation(corpus, t: int, tiny: bool) -> dict:
    """Per-function stack loop vs. the production batch path, same texts.

    The batch path is :func:`~repro.index.builder.generate_corpus_postings`
    on one batch of all the texts, hash gather and posting fill included;
    the stack loop runs on hash matrices gathered before the clock starts.
    """
    family = HashFamily(k=GENERATION_K, seed=3)
    vocab_hashes = family.hash_vocabulary(4096)
    batch = [(i, np.asarray(corpus[i])) for i in range(min(len(corpus), 400))]
    matrices = [vocab_hashes[:, tokens.astype(np.int64)] for _, tokens in batch]
    total_tokens = sum(tokens.size for _, tokens in batch)
    repeats = 1 if tiny else 3

    stack_seconds = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        stack_windows = 0
        for matrix in matrices:
            for func in range(GENERATION_K):
                stack_windows += generate_compact_windows_stack(matrix[func], t).size
        stack_seconds = min(stack_seconds, time.perf_counter() - begin)

    batch_seconds = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        per_func = generate_corpus_postings(batch, family, t, vocab_hashes)
        batch_seconds = min(batch_seconds, time.perf_counter() - begin)
    batch_windows = sum(postings.size for _, postings in per_func)

    assert stack_windows == batch_windows, "generators disagree on window count"
    return {
        "k": GENERATION_K,
        "texts": len(batch),
        "tokens": total_tokens,
        "windows": int(batch_windows),
        "stack_seconds": stack_seconds,
        "batch_seconds": batch_seconds,
        "stack_tokens_per_sec": total_tokens / stack_seconds,
        "batch_tokens_per_sec": total_tokens / batch_seconds,
        "speedup": stack_seconds / batch_seconds,
    }


def bench_memory(corpus, t: int, tiny: bool) -> dict:
    """End-to-end throughput of the streaming in-memory build."""
    family = HashFamily(k=16 if tiny else 32, seed=9)
    stats = BuildStats()
    begin = time.perf_counter()
    index = build_memory_index(corpus, family, t, vocab_size=4096, stats=stats)
    wall = time.perf_counter() - begin
    return {
        "seconds": wall,
        "texts_per_sec": len(corpus) / wall,
        "generation_seconds": stats.generation_seconds,
        "merge_seconds": stats.merge_seconds,
        "postings": int(index.num_postings),
    }


def bench_external(corpus, t: int, tiny: bool) -> dict:
    """Out-of-core build with the default configuration."""
    family = HashFamily(k=8 if tiny else 16, seed=13)
    with tempfile.TemporaryDirectory(prefix="bench_build_ext_") as tmp:
        begin = time.perf_counter()
        stats = build_external_index(
            corpus, family, t, Path(tmp) / "idx", vocab_size=4096
        )
        wall = time.perf_counter() - begin
    return {
        "seconds": wall,
        "generation_seconds": stats.generation_seconds,
        "aggregation_seconds": stats.aggregation_seconds,
        "io_seconds": stats.io_seconds,
        "bytes_written": stats.bytes_written,
        "windows": stats.windows_generated,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke scale (seconds, not minutes)"
    )
    parser.add_argument("-t", type=int, default=25, help="length threshold")
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    corpus = make_corpus(args.tiny)
    print(f"corpus: {len(corpus)} texts, {corpus.total_tokens} tokens")

    generation = bench_generation(corpus, args.t, args.tiny)
    print(
        f"generation k={generation['k']}: stack {generation['stack_seconds']:.2f}s, "
        f"batch {generation['batch_seconds']:.2f}s, "
        f"speedup {generation['speedup']:.2f}x"
    )

    memory = bench_memory(corpus, args.t, args.tiny)
    print(
        f"memory build: {memory['seconds']:.2f}s "
        f"({memory['texts_per_sec']:.1f} texts/s)"
    )

    external = bench_external(corpus, args.t, args.tiny)
    print(
        f"external build: {external['seconds']:.2f}s "
        f"(generation {external['generation_seconds']:.2f}s, "
        f"aggregation {external['aggregation_seconds']:.2f}s, "
        f"io {external['io_seconds']:.2f}s)"
    )

    payload = {
        "benchmark": "bench_build_throughput",
        "tiny": args.tiny,
        "t": args.t,
        "corpus": {"texts": len(corpus), "tokens": int(corpus.total_tokens)},
        "generation": generation,
        "memory": memory,
        "external": external,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.output}")

    # Acceptance gate (full scale only): >= 3x window-generation
    # throughput from the batch path at k = 64.
    if not args.tiny:
        ok = generation["speedup"] >= 3.0
        print(
            f"acceptance: batch generation speedup {generation['speedup']:.2f}x "
            f"(>= 3 required) -> {'PASS' if ok else 'FAIL'}"
        )
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
