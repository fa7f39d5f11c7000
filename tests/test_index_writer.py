"""Byte identity of every write path against the per-list oracle writer.

The index writer encodes a whole run of lists per codec call
(``_IndexWriter.write_lists`` over ``encode_lists``); the oracle in
``tests/write_oracle.py`` encodes one list at a time with the scalar
reference codec and keeps its directory as Python lists.  Every build
path — memory dump, out-of-core build (with and without
re-partitioning), merge, LSM seal and compaction — must commit the same
payload, sidecar and meta bytes through either writer, for both codecs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.corpus.corpus import InMemoryCorpus
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_and_write_index, build_memory_index
from repro.index.external import ExternalBuildConfig, build_external_index
from repro.index.inverted import POSTING_DTYPE
from repro.index.lsm.live import LiveIndex, LiveIndexConfig
from repro.index.merge import merge_disk_indexes
from repro.index.storage import DiskInvertedIndex, _IndexWriter, write_index
from write_oracle import index_bytes, oracle_writer

FAMILY = HashFamily(k=4, seed=11)
T = 10
CODECS = ("raw", "packed")


@pytest.fixture(scope="module")
def texts():
    rng = np.random.default_rng(41)
    out = [
        rng.integers(0, 300, size=rng.integers(5, 200)).astype(np.uint32)
        for _ in range(60)
    ]
    out.append(np.empty(0, dtype=np.uint32))
    return out


@pytest.fixture(scope="module")
def memory(texts):
    return build_memory_index(InMemoryCorpus(texts), FAMILY, T)


def digests(directory) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in index_bytes(directory).items()
    }


def assert_matches_oracle(monkeypatch, tmp_path, build) -> None:
    """``build(directory)`` commits the same bytes through both writers."""
    vector = build(tmp_path / "vector")
    with oracle_writer(monkeypatch):
        oracle = build(tmp_path / "oracle")
    assert digests(vector) == digests(oracle)


@pytest.mark.parametrize("codec", CODECS)
class TestMatchesOracle:
    def test_write_index(self, monkeypatch, tmp_path, memory, codec):
        # Small zone-map parameters give most lists a zone map.
        assert_matches_oracle(
            monkeypatch,
            tmp_path,
            lambda d: write_index(
                memory, d, zonemap_step=4, zonemap_min_list=8, codec=codec
            ),
        )

    def test_build_and_write_index(self, monkeypatch, tmp_path, texts, codec):
        def build(directory):
            build_and_write_index(InMemoryCorpus(texts), FAMILY, T, directory, codec=codec)
            return directory

        assert_matches_oracle(monkeypatch, tmp_path, build)

    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"batch_texts": 9, "num_partitions": 3},
            {"batch_texts": 9, "memory_budget_bytes": 256},  # re-partitions
        ],
        ids=["default", "3-partitions", "recursive"],
    )
    def test_build_external_index(self, monkeypatch, tmp_path, texts, codec, config):
        def build(directory):
            build_external_index(
                InMemoryCorpus(texts),
                FAMILY,
                T,
                directory,
                config=ExternalBuildConfig(codec=codec, **config),
            )
            return directory

        assert_matches_oracle(monkeypatch, tmp_path, build)

    def test_merge(self, monkeypatch, tmp_path, texts, codec):
        sources = []
        for name, part, source_codec in (
            ("a", texts[:25], "raw"),
            ("b", texts[25:], "packed"),
        ):
            build_and_write_index(
                InMemoryCorpus(part), FAMILY, T, tmp_path / name, codec=source_codec
            )
            sources.append(tmp_path / name)
        assert_matches_oracle(
            monkeypatch,
            tmp_path,
            lambda d: merge_disk_indexes(sources, d, codec=codec),
        )

    def test_seal_and_compaction(self, monkeypatch, tmp_path, texts, codec):
        def runs(root) -> list[dict[str, str]]:
            live = LiveIndex(
                root,
                family=FAMILY,
                t=T,
                vocab_size=300,
                config=LiveIndexConfig(
                    codec=codec, background_compaction=False, ack_policy="none"
                ),
            )
            committed = []
            for start in range(0, len(texts), 20):
                live.append_texts(texts[start : start + 20])
                committed.append(digests(root / live.seal()))
            assert live.compact(all_runs=True)
            committed.append(digests(root / live.manifest.runs[0]))
            live.close()
            return committed

        vector = runs(tmp_path / "vector")
        with oracle_writer(monkeypatch):
            oracle = runs(tmp_path / "oracle")
        assert len(vector) == 5
        assert vector == oracle


class TestWriterContract:
    def test_runs_in_any_order_equal_one_run(self, tmp_path, memory):
        """Lists handed over in several runs, functions and keys out of
        order, commit the bytes of the key-ordered single run — up to
        the payload, whose list order follows the runs."""
        funcs, keys, postings, bounds = memory.all_lists()
        zone_maps = {"zonemap_step": 4, "zonemap_min_list": 8}
        whole = write_index(memory, tmp_path / "whole", codec="packed", **zone_maps)
        writer = _IndexWriter(tmp_path / "split", FAMILY, T, codec="packed", **zone_maps)
        lists = np.arange(keys.size)[::-1]  # every list, last first
        for chunk in np.array_split(lists, 7):
            starts, ends = bounds[chunk], bounds[chunk + 1]
            writer.write_lists(
                funcs[chunk],
                keys[chunk],
                np.concatenate([postings[s:e] for s, e in zip(starts, ends)]),
                np.concatenate(([0], np.cumsum(ends - starts))),
            )
        writer.close()
        a, b = DiskInvertedIndex(whole), DiskInvertedIndex(tmp_path / "split")
        for func in range(FAMILY.k):
            assert np.array_equal(a.list_keys(func), b.list_keys(func))
            for key in a.list_keys(func).tolist():
                assert np.array_equal(a.load_list(func, key), b.load_list(func, key))
                zone_a, zone_b = a.zone_map(func, key), b.zone_map(func, key)
                assert (zone_a is None) == (zone_b is None)
                if zone_a is not None:
                    assert np.array_equal(zone_a.sample_texts, zone_b.sample_texts)

    def test_rejects_misaligned_keys_and_bad_funcs(self, tmp_path):
        writer = _IndexWriter(tmp_path / "bad", FAMILY, T)
        postings = np.zeros(4, dtype=POSTING_DTYPE)
        with pytest.raises(InvalidParameterError, match="align"):
            writer.write_lists(0, [1, 2, 3], postings, [0, 2, 4])
        with pytest.raises(InvalidParameterError, match="hash function"):
            writer.write_lists([0, FAMILY.k], [1, 2], postings, [0, 2, 4])

    def test_rejects_non_positive_zonemap_step(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="zonemap_step"):
            _IndexWriter(tmp_path / "zm", FAMILY, T, zonemap_step=0)
