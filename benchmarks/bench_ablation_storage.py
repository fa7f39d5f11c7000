"""Ablations on the storage layer: zone-map step and external build.

  * Zone-map step size trades directory memory against point-read I/O:
    a smaller step reads fewer bytes per long-list probe.
  * The out-of-core hash-aggregation build pays a constant factor over
    the in-memory build (two passes over index-sized data) but keeps
    peak memory bounded by the partition budget — the paper's C4/Pile
    path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.index.builder import build_memory_index
from repro.index.external import ExternalBuildConfig, build_external_index
from repro.index.storage import DiskInvertedIndex, write_index

from conftest import VOCAB_LARGE, print_series


@pytest.fixture(scope="module")
def memory_index(base_corpus):
    family = HashFamily(k=8, seed=6)
    return build_memory_index(base_corpus.corpus, family, t=25, vocab_size=VOCAB_LARGE)


def longest_list(index):
    """``(func, minhash, postings)`` of the index's longest list."""
    funcs, keys, postings, bounds = index.all_lists()
    longest = int(np.argmax(np.diff(bounds)))
    lo, hi = bounds[longest], bounds[longest + 1]
    return int(funcs[longest]), int(keys[longest]), postings[lo:hi]


@pytest.mark.parametrize("step", [16, 64, 256])
def test_zonemap_step_io_tradeoff(benchmark, memory_index, tmp_path, step):
    directory = write_index(
        memory_index, tmp_path / f"zm{step}", zonemap_step=step, zonemap_min_list=64
    )
    disk = DiskInvertedIndex(directory)

    # Probe the longest list for texts it does and does not contain.
    func, minhash, postings = longest_list(memory_index)
    probe_texts = list(dict.fromkeys(postings["text"].tolist()))[:20]

    def probe():
        disk.io_stats.reset()
        for text_id in probe_texts:
            disk.load_texts_windows(func, minhash, [text_id])
        return disk.io_stats.bytes_read

    io_bytes = benchmark.pedantic(probe, rounds=3, iterations=1)
    benchmark.extra_info["io_bytes"] = io_bytes
    benchmark.extra_info["list_len"] = int(postings.size)
    print_series(
        f"Zone-map step={step}",
        ["step", "list_len", "probe_io_bytes"],
        [(step, int(postings.size), io_bytes)],
    )
    # Point reads must touch far less than re-reading the list each time.
    assert io_bytes < len(probe_texts) * postings.nbytes


def test_zonemap_smaller_step_reads_less(benchmark, memory_index, tmp_path):
    results = {}
    func, minhash, postings = longest_list(memory_index)
    probe_texts = list(dict.fromkeys(postings["text"].tolist()))[:20]

    def probe_both_steps():
        for step in (16, 256):
            directory = write_index(
                memory_index,
                tmp_path / f"cmp{step}",
                zonemap_step=step,
                zonemap_min_list=64,
            )
            disk = DiskInvertedIndex(directory)
            disk.io_stats.reset()
            for text_id in probe_texts:
                disk.load_texts_windows(func, minhash, [text_id])
            results[step] = disk.io_stats.bytes_read

    benchmark.pedantic(probe_both_steps, rounds=1, iterations=1)
    print_series(
        "Zone-map step trend",
        ["step", "probe_io_bytes"],
        [(s, results[s]) for s in sorted(results)],
    )
    assert results[16] <= results[256]


@pytest.mark.parametrize("batch_texts", [32, 128])
def test_external_build_cost(benchmark, base_corpus, tmp_path, batch_texts):
    """Out-of-core build: correct result, bounded memory, ~2x write volume."""
    from repro.corpus.store import DiskCorpus, write_corpus

    corpus_dir = write_corpus(base_corpus.corpus, tmp_path / f"c{batch_texts}")
    disk_corpus = DiskCorpus(corpus_dir)
    family = HashFamily(k=4, seed=6)
    stats = benchmark.pedantic(
        build_external_index,
        args=(disk_corpus, family, 25, tmp_path / f"x{batch_texts}"),
        kwargs={
            "vocab_size": VOCAB_LARGE,
            "config": ExternalBuildConfig(batch_texts=batch_texts, num_partitions=8),
        },
        rounds=1,
        iterations=1,
    )
    disk = DiskInvertedIndex(tmp_path / f"x{batch_texts}")
    reference = build_memory_index(
        base_corpus.corpus, family, t=25, vocab_size=VOCAB_LARGE
    )
    benchmark.extra_info["bytes_written"] = stats.bytes_written
    print_series(
        f"External build batch={batch_texts}",
        ["batch", "windows", "bytes_written", "final_bytes"],
        [(batch_texts, stats.windows_generated, stats.bytes_written, disk.nbytes)],
    )
    assert disk.num_postings == reference.num_postings
    assert stats.bytes_written >= 2 * disk.nbytes  # the two-pass cost
