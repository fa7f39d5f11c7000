"""Tests for merging independently-built on-disk indexes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.exceptions import IndexFormatError, InvalidParameterError
from repro.index.builder import build_memory_index
from repro.index.merge import merge_disk_indexes
from repro.index.storage import DiskInvertedIndex, write_index
from repro.index.validate import validate_index

from index_lists import func_lists

VOCAB = 180


@pytest.fixture(scope="module")
def partitions(tmp_path_factory, ):
    rng = np.random.default_rng(23)
    texts = [rng.integers(0, VOCAB, size=60).astype(np.uint32) for _ in range(12)]
    family = HashFamily(k=6, seed=8)
    t = 10
    root = tmp_path_factory.mktemp("merge")
    paths = []
    # Three partitions of 4 texts each, indexed with *local* ids 0..3.
    for part in range(3):
        local = InMemoryCorpus(texts[part * 4 : (part + 1) * 4])
        index = build_memory_index(local, family, t, vocab_size=VOCAB)
        path = root / f"part{part}"
        write_index(index, path)
        paths.append(path)
    full = build_memory_index(InMemoryCorpus(texts), family, t, vocab_size=VOCAB)
    return texts, family, t, paths, full, root


class TestMerge:
    def test_merged_equals_monolithic(self, partitions):
        texts, family, t, paths, full, root = partitions
        merged_path = merge_disk_indexes(paths, root / "merged", text_offsets=[0, 4, 8])
        merged = DiskInvertedIndex(merged_path)
        assert merged.num_postings == full.num_postings
        for func in range(family.k):
            lists_a = func_lists(full, func)
            lists_b = func_lists(merged, func)
            assert lists_a.keys() == lists_b.keys()
            for key in lists_a:
                assert np.array_equal(
                    np.sort(lists_a[key], order=["text", "center"]),
                    np.sort(lists_b[key], order=["text", "center"]),
                )

    def test_merged_queries_match(self, partitions):
        texts, family, t, paths, full, root = partitions
        merged_path = merge_disk_indexes(
            paths, root / "merged_q", text_offsets=[0, 4, 8]
        )
        merged = DiskInvertedIndex(merged_path)
        query = np.asarray(texts[5])[:30]
        res_a = NearDuplicateSearcher(full).search(query, 0.7)
        res_b = NearDuplicateSearcher(merged).search(query, 0.7)
        as_set = lambda res: {
            (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
            for m in res.matches
            for r in m.rectangles
        }
        assert as_set(res_a) == as_set(res_b)

    def test_inferred_offsets(self, partitions):
        """Without explicit offsets, partitions are stacked by inferred size."""
        texts, family, t, paths, full, root = partitions
        merged_path = merge_disk_indexes(paths, root / "merged_auto")
        merged = DiskInvertedIndex(merged_path)
        assert merged.num_postings == full.num_postings

    def test_empty_sources_rejected(self, partitions):
        _, _, _, _, _, root = partitions
        with pytest.raises(InvalidParameterError):
            merge_disk_indexes([], root / "nothing")

    def test_mismatched_family_rejected(self, partitions, tmp_path):
        texts, family, t, paths, _, root = partitions
        other_family = HashFamily(k=6, seed=999)
        other = build_memory_index(
            InMemoryCorpus(texts[:2]), other_family, t, vocab_size=VOCAB
        )
        other_path = tmp_path / "other"
        write_index(other, other_path)
        with pytest.raises(IndexFormatError):
            merge_disk_indexes([paths[0], other_path], tmp_path / "bad")

    def test_mismatched_t_rejected(self, partitions, tmp_path):
        texts, family, t, paths, _, root = partitions
        other = build_memory_index(
            InMemoryCorpus(texts[:2]), family, t + 5, vocab_size=VOCAB
        )
        other_path = tmp_path / "other_t"
        write_index(other, other_path)
        with pytest.raises(IndexFormatError):
            merge_disk_indexes([paths[0], other_path], tmp_path / "bad_t")

    def test_offset_count_validated(self, partitions, tmp_path):
        _, _, _, paths, _, _ = partitions
        with pytest.raises(InvalidParameterError):
            merge_disk_indexes(paths, tmp_path / "off", text_offsets=[0, 4])


@pytest.fixture(scope="module")
def halves(tmp_path_factory):
    """Two partitions of 6 texts each, indexed with local ids 0..5."""
    rng = np.random.default_rng(5)
    texts = [rng.integers(0, VOCAB, size=60).astype(np.uint32) for _ in range(12)]
    family = HashFamily(k=6, seed=8)
    root = tmp_path_factory.mktemp("halves")
    paths = []
    for part in range(2):
        local = InMemoryCorpus(texts[part * 6 : (part + 1) * 6])
        path = root / f"half{part}"
        write_index(build_memory_index(local, family, 10, vocab_size=VOCAB), path)
        paths.append(path)
    full = build_memory_index(InMemoryCorpus(texts), family, 10, vocab_size=VOCAB)
    return paths, full


class TestTextOffsetsChecked:
    """Offsets that would interleave two partitions' text ids in a list,
    or push them past ``uint32``, are refused before anything commits."""

    @pytest.mark.parametrize(
        "offsets", [[0, 0], [6, 0], [0, 2**32 - 3]], ids=["equal", "reversed", "wrap"]
    )
    def test_bad_offsets_raise_and_commit_nothing(self, halves, tmp_path, offsets):
        paths, _ = halves
        with pytest.raises(InvalidParameterError, match="text_offsets"):
            merge_disk_indexes(paths, tmp_path / "bad", text_offsets=offsets)
        assert not (tmp_path / "bad" / "index.meta.json").exists()

    def test_good_offsets_equal_the_monolithic_build(self, halves, tmp_path):
        paths, full = halves
        merged = DiskInvertedIndex(
            merge_disk_indexes(paths, tmp_path / "good", text_offsets=[0, 6])
        )
        assert validate_index(merged).ok
        for func in range(full.family.k):
            lists_a = func_lists(full, func)
            lists_b = func_lists(merged, func)
            assert lists_a.keys() == lists_b.keys()
            for key in lists_a:
                assert np.array_equal(lists_a[key], lists_b[key]), (func, key)
