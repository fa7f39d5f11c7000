"""Tests for out-of-core index construction (hash aggregation)."""

from __future__ import annotations

import io
import time

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.corpus.store import DiskCorpus, write_corpus
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.index.external import (
    ExternalBuildConfig,
    SPILL_DTYPE,
    _partition_of,
    build_external_index,
)
from repro.index import storage
from repro.index.storage import DiskInvertedIndex


def indexes_equal(a, b) -> bool:
    """Same keys and same postings per list for every hash function."""
    if a.family != b.family or a.t != b.t or a.num_postings != b.num_postings:
        return False
    for func in range(a.family.k):
        lists_a = dict(a.iter_lists(func))
        lists_b = dict(b.iter_lists(func))
        if lists_a.keys() != lists_b.keys():
            return False
        for key in lists_a:
            if not np.array_equal(lists_a[key], lists_b[key]):
                return False
    return True


class TestPartitioning:
    def test_partition_ids_in_range(self):
        records = np.zeros(100, dtype=SPILL_DTYPE)
        records["minhash"] = np.arange(100)
        parts = _partition_of(records, 8, salt=0)
        assert parts.min() >= 0 and parts.max() < 8

    def test_same_key_same_partition(self):
        records = np.zeros(4, dtype=SPILL_DTYPE)
        records["func"] = [1, 1, 2, 2]
        records["minhash"] = [9, 9, 9, 9]
        records["text"] = [0, 5, 0, 5]
        parts = _partition_of(records, 16, salt=0)
        assert parts[0] == parts[1]
        assert parts[2] == parts[3]

    def test_salt_changes_layout(self):
        records = np.zeros(256, dtype=SPILL_DTYPE)
        records["minhash"] = np.arange(256)
        a = _partition_of(records, 4, salt=0)
        b = _partition_of(records, 4, salt=1)
        assert not np.array_equal(a, b)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ExternalBuildConfig(batch_texts=0)
        with pytest.raises(InvalidParameterError):
            ExternalBuildConfig(num_partitions=1)
        with pytest.raises(InvalidParameterError):
            ExternalBuildConfig(memory_budget_bytes=1)


class TestExternalBuild:
    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        from repro.corpus.synthetic import synthweb

        data = synthweb(num_texts=150, mean_length=120, vocab_size=512, seed=33)
        directory = write_corpus(data.corpus, tmp_path_factory.mktemp("c") / "corpus")
        return data.corpus, DiskCorpus(directory)

    def test_matches_in_memory_build(self, corpora, tmp_path):
        memory_corpus, disk_corpus = corpora
        family = HashFamily(k=4, seed=17)
        reference = build_memory_index(memory_corpus, family, t=20, vocab_size=512)
        build_external_index(
            disk_corpus,
            family,
            20,
            tmp_path / "ext",
            vocab_size=512,
            config=ExternalBuildConfig(batch_texts=13, num_partitions=5),
        )
        external = DiskInvertedIndex(tmp_path / "ext").to_memory()
        assert indexes_equal(reference, external)

    def test_recursive_partitioning_path(self, corpora, tmp_path):
        """A tiny memory budget forces recursive re-partitioning."""
        memory_corpus, disk_corpus = corpora
        family = HashFamily(k=2, seed=5)
        reference = build_memory_index(memory_corpus, family, t=20, vocab_size=512)
        stats = build_external_index(
            disk_corpus,
            family,
            20,
            tmp_path / "deep",
            vocab_size=512,
            config=ExternalBuildConfig(
                batch_texts=20,
                num_partitions=3,
                memory_budget_bytes=4096,  # forces recursion
                max_recursion=3,
            ),
        )
        external = DiskInvertedIndex(tmp_path / "deep").to_memory()
        assert indexes_equal(reference, external)
        assert stats.windows_generated == reference.num_postings

    def test_spill_directory_cleaned(self, corpora, tmp_path):
        _, disk_corpus = corpora
        family = HashFamily(k=2, seed=1)
        build_external_index(disk_corpus, family, 20, tmp_path / "clean", vocab_size=512)
        assert not (tmp_path / "clean" / "spill").exists()

    def test_stats_two_passes(self, corpora, tmp_path):
        """Hash aggregation writes spills + final payload: bytes_written
        must be at least twice the final index payload size."""
        _, disk_corpus = corpora
        family = HashFamily(k=2, seed=2)
        stats = build_external_index(
            disk_corpus, family, 20, tmp_path / "st", vocab_size=512
        )
        disk = DiskInvertedIndex(tmp_path / "st")
        assert stats.bytes_written >= 2 * disk.nbytes
        assert stats.io_seconds > 0
        assert stats.generation_seconds > 0

    def test_phases_do_not_count_payload_writes_twice(
        self, corpora, tmp_path, monkeypatch
    ):
        """Generation, aggregation and I/O are disjoint spans of the
        build, so they sum to at most its wall time — even when the
        index payload writes, which run inside the aggregation pass, are
        slow."""

        class SlowPayload(io.BufferedWriter):
            def write(self, data):
                time.sleep(0.002)
                return super().write(data)

            def flush(self):  # ndarray.tofile flushes, then writes the fd
                time.sleep(0.002)
                super().flush()

        monkeypatch.setattr(
            storage,
            "open",
            lambda path, mode: SlowPayload(io.FileIO(path, mode)),
            raising=False,
        )
        _, disk_corpus = corpora
        begin = time.perf_counter()
        stats = build_external_index(
            disk_corpus,
            HashFamily(k=4, seed=17),
            20,
            tmp_path / "slow",
            vocab_size=512,
            config=ExternalBuildConfig(codec="packed"),
        )
        wall = time.perf_counter() - begin
        assert stats.io_seconds > 0.02  # the slow writes were timed as I/O
        assert (
            stats.generation_seconds + stats.aggregation_seconds + stats.io_seconds
            <= wall
        )
        assert stats.total_seconds <= wall

    def test_t_validated(self, corpora, tmp_path):
        _, disk_corpus = corpora
        with pytest.raises(InvalidParameterError):
            build_external_index(
                disk_corpus, HashFamily(k=2), 0, tmp_path / "bad", vocab_size=512
            )

    def test_queries_agree_with_memory_index(self, corpora, tmp_path):
        from repro.core.search import NearDuplicateSearcher

        memory_corpus, disk_corpus = corpora
        family = HashFamily(k=8, seed=4)
        reference = build_memory_index(memory_corpus, family, t=20, vocab_size=512)
        build_external_index(
            disk_corpus, family, 20, tmp_path / "q", vocab_size=512
        )
        disk = DiskInvertedIndex(tmp_path / "q")
        query = np.asarray(memory_corpus[0])[:40]
        res_a = NearDuplicateSearcher(reference).search(query, 0.7)
        res_b = NearDuplicateSearcher(disk).search(query, 0.7)
        spans_a = {(s.text_id, s.start, s.end) for s in res_a.merged_spans()}
        spans_b = {(s.text_id, s.start, s.end) for s in res_b.merged_spans()}
        assert spans_a == spans_b
