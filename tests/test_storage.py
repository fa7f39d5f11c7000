"""Tests for the on-disk index format (write, read, zone maps, errors)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.exceptions import IndexFormatError
from repro.index.builder import build_memory_index
from repro.index.storage import DiskInvertedIndex, write_index

from index_lists import func_lists


@pytest.fixture(scope="module")
def saved(tmp_path_factory, request):
    """A built index persisted to disk plus its in-memory original."""
    from repro.corpus.synthetic import synthweb

    data = synthweb(num_texts=120, mean_length=120, vocab_size=512, seed=21)
    family = HashFamily(k=6, seed=2)
    memory = build_memory_index(data.corpus, family, t=20, vocab_size=512)
    directory = tmp_path_factory.mktemp("index")
    write_index(memory, directory, zonemap_step=8, zonemap_min_list=16)
    return memory, DiskInvertedIndex(directory), directory


class TestRoundTrip:
    def test_metadata_preserved(self, saved):
        memory, disk, _ = saved
        assert disk.family == memory.family
        assert disk.t == memory.t
        assert disk.num_postings == memory.num_postings
        assert disk.nbytes == memory.nbytes

    def test_every_list_identical(self, saved):
        memory, disk, _ = saved
        for func in range(memory.family.k):
            for minhash, postings in func_lists(memory, func).items():
                loaded = disk.load_list(func, minhash)
                assert np.array_equal(loaded, postings), (func, minhash)

    def test_absent_list_empty(self, saved):
        _, disk, _ = saved
        # 2**32 - 1 is (almost surely) not a stored min-hash here.
        assert disk.load_list(0, 2**32 - 1).size == 0
        sketch = np.full(disk.family.k, 2**32 - 1, dtype=np.int64)
        assert disk.sketch_list_lengths(sketch)[0] == 0

    def test_list_lengths_match(self, saved):
        memory, disk, _ = saved
        for func in range(memory.family.k):
            assert sorted(disk.list_lengths(func).tolist()) == sorted(
                memory.list_lengths(func).tolist()
            )

    def test_all_lists_equivalent(self, saved):
        memory, disk, _ = saved
        funcs, keys, postings, bounds = disk.all_lists()
        assert postings.size == memory.num_postings
        for want, have in zip(memory.all_lists(), (funcs, keys, postings, bounds)):
            assert np.array_equal(want, have)

    def test_num_texts_recorded(self, saved):
        memory, disk, _ = saved
        assert memory.num_texts == 120
        assert disk.num_texts == 120

    def test_num_texts_absent_in_legacy_meta(self, saved):
        # An index written before the key existed reads back as None.
        _, _, directory = saved
        meta_path = directory / "index.meta.json"
        meta = json.loads(meta_path.read_text())
        recorded = meta.pop("num_texts")
        assert recorded == 120
        meta_path.write_text(json.dumps(meta))
        try:
            assert DiskInvertedIndex(directory).num_texts is None
        finally:
            meta["num_texts"] = recorded
            meta_path.write_text(json.dumps(meta))


class TestTextWindowReads:
    def test_matches_full_list_filter(self, saved):
        memory, disk, _ = saved
        for func in range(memory.family.k):
            for minhash, postings in func_lists(memory, func).items():
                texts = set(postings["text"].tolist())
                probe = sorted(texts)[len(texts) // 2]
                via_zone = disk.load_texts_windows(func, minhash, [probe])
                expected = postings[postings["text"] == probe]
                assert np.array_equal(via_zone, expected)
                break  # one list per function keeps the test fast

    def test_absent_text_empty(self, saved):
        memory, disk, _ = saved
        func = 0
        minhash, _ = next(iter(func_lists(memory, func).items()))
        assert disk.load_texts_windows(func, minhash, [10**6]).size == 0

    def test_zone_map_present_for_long_lists(self, saved):
        memory, disk, _ = saved
        found = 0
        for func in range(memory.family.k):
            for minhash, postings in func_lists(memory, func).items():
                zone = disk.zone_map(func, minhash)
                if postings.size >= 16:
                    assert zone is not None
                    assert zone.length == postings.size
                    found += 1
                else:
                    assert zone is None
        assert found > 0, "fixture produced no long lists"

    def test_zone_map_reduces_io(self, saved):
        memory, disk, _ = saved
        # Find the longest list and point-read one text from it.
        best = None
        for func in range(memory.family.k):
            for minhash, postings in func_lists(memory, func).items():
                if best is None or postings.size > best[2].size:
                    best = (func, minhash, postings)
        func, minhash, postings = best
        assert postings.size >= 16
        disk.io_stats.reset()
        disk.load_texts_windows(func, minhash, postings["text"][:1])
        assert disk.io_stats.bytes_read < postings.nbytes


class TestIOAccounting:
    def test_load_list_counts_bytes(self, saved):
        memory, disk, _ = saved
        func = 0
        minhash, postings = next(iter(func_lists(memory, func).items()))
        disk.io_stats.reset()
        disk.load_list(func, minhash)
        assert disk.io_stats.bytes_read == postings.nbytes
        assert disk.io_stats.read_calls == 1


class TestFormatErrors:
    def test_missing_meta(self, tmp_path):
        with pytest.raises(IndexFormatError):
            DiskInvertedIndex(tmp_path)

    def test_bad_version(self, saved, tmp_path):
        _, _, directory = saved
        clone = tmp_path / "clone"
        clone.mkdir()
        for path in directory.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
        meta = clone / "index.meta.json"
        payload = json.loads(meta.read_text())
        payload["format_version"] = 42
        meta.write_text(json.dumps(payload))
        with pytest.raises(IndexFormatError):
            DiskInvertedIndex(clone)

    def test_truncated_payload(self, saved, tmp_path):
        _, _, directory = saved
        clone = tmp_path / "clone2"
        clone.mkdir()
        for path in directory.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
        payload = clone / "index.postings.bin"
        payload.write_bytes(payload.read_bytes()[:-16])
        with pytest.raises(IndexFormatError):
            DiskInvertedIndex(clone)


class TestTornMeta:
    """A torn or mistyped meta is a format error, never a raw one."""

    @pytest.fixture(scope="class")
    def packed(self, saved, tmp_path_factory):
        memory, _, _ = saved
        return write_index(memory, tmp_path_factory.mktemp("packed"), codec="packed")

    @staticmethod
    def clone_with_meta(source, target, edit):
        target.mkdir()
        for path in source.iterdir():
            (target / path.name).write_bytes(path.read_bytes())
        meta = target / "index.meta.json"
        meta.write_text(edit(meta.read_text()))
        return target

    def test_truncated_meta(self, saved, tmp_path):
        clone = self.clone_with_meta(saved[2], tmp_path / "torn", lambda text: text[:40])
        with pytest.raises(IndexFormatError, match="torn"):
            DiskInvertedIndex(clone)

    @pytest.mark.parametrize(
        "codec, field",
        [
            ("raw", "t"),
            ("raw", "num_postings"),
            ("raw", "zonemap_step"),
            ("raw", "family"),
            ("packed", "payload_bytes"),
        ],
    )
    def test_missing_field(self, saved, packed, tmp_path, codec, field):
        source = packed if codec == "packed" else saved[2]

        def drop(text):
            meta = json.loads(text)
            del meta[field]
            return json.dumps(meta)

        clone = self.clone_with_meta(source, tmp_path / "missing", drop)
        with pytest.raises(IndexFormatError, match=field):
            DiskInvertedIndex(clone)

    @pytest.mark.parametrize("field", ["t", "zonemap_step"])
    def test_non_positive_field(self, saved, tmp_path, field):
        def edit(text):
            meta = json.loads(text)
            meta[field] = 0
            return json.dumps(meta)

        clone = self.clone_with_meta(saved[2], tmp_path / "zero", edit)
        with pytest.raises(IndexFormatError, match=field):
            DiskInvertedIndex(clone)

    @pytest.mark.parametrize(
        "family",
        [{"k": 6, "a": "x", "b": [1]}, {"k": "six", "a": [], "b": []}, [1, 2]],
        ids=["bad-arrays", "bad-k", "not-an-object"],
    )
    def test_malformed_family(self, saved, tmp_path, family):
        def edit(text):
            meta = json.loads(text)
            meta["family"] = family
            return json.dumps(meta)

        clone = self.clone_with_meta(saved[2], tmp_path / "family", edit)
        with pytest.raises(IndexFormatError):
            DiskInvertedIndex(clone)


class TestEmptyIndex:
    def test_write_and_read_empty(self, tmp_path):
        from repro.corpus.corpus import InMemoryCorpus

        family = HashFamily(k=3, seed=1)
        memory = build_memory_index(InMemoryCorpus([]), family, t=5, vocab_size=8)
        directory = write_index(memory, tmp_path / "empty")
        disk = DiskInvertedIndex(directory)
        assert disk.num_postings == 0
        assert disk.load_list(0, 0).size == 0
