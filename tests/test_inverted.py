"""Tests for the in-memory inverted index and its directory structures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.index.inverted import (
    IOStats,
    ListLengthProfile,
    MemoryInvertedIndex,
    POSTING_BYTES,
    POSTING_DTYPE,
    concat_postings,
    posting_rows,
    row_postings,
)
from repro.index.storage import DiskInvertedIndex, write_index


def make_postings(records):
    """records: list of (minhash, text, l, c, r)."""
    minhashes = np.array([r[0] for r in records], dtype=np.uint32)
    postings = np.empty(len(records), dtype=POSTING_DTYPE)
    for idx, (_, text, left, center, right) in enumerate(records):
        postings[idx] = (text, left, center, right)
    return minhashes, postings


class TestIOStats:
    def test_add_and_reset(self):
        stats = IOStats()
        stats.add(100, 0.5)
        stats.add(50)
        assert stats.bytes_read == 150
        assert stats.read_calls == 2
        assert stats.seconds == 0.5
        stats.reset()
        assert stats.bytes_read == 0 and stats.read_calls == 0


class TestFromPostings:
    def test_lists_sorted_by_text(self, family):
        minhashes, postings = make_postings(
            [(7, 3, 0, 1, 2), (7, 1, 0, 1, 2), (7, 2, 0, 1, 2)]
        )
        per_func = [(minhashes, postings)] + [
            (np.empty(0, dtype=np.uint32), np.empty(0, dtype=POSTING_DTYPE))
        ] * (family.k - 1)
        index = MemoryInvertedIndex.from_postings(family, 2, per_func)
        loaded = index.load_list(0, 7)
        assert loaded["text"].tolist() == [1, 2, 3]

    def test_requires_one_entry_per_func(self, family):
        with pytest.raises(InvalidParameterError):
            MemoryInvertedIndex.from_postings(family, 2, [])

    def test_misaligned_arrays_rejected(self, family):
        minhashes = np.zeros(2, dtype=np.uint32)
        postings = np.empty(3, dtype=POSTING_DTYPE)
        per_func = [(minhashes, postings)] + [
            (np.empty(0, dtype=np.uint32), np.empty(0, dtype=POSTING_DTYPE))
        ] * (family.k - 1)
        with pytest.raises(InvalidParameterError):
            MemoryInvertedIndex.from_postings(family, 2, per_func)

    def test_t_validated(self, family):
        per_func = [
            (np.empty(0, dtype=np.uint32), np.empty(0, dtype=POSTING_DTYPE))
        ] * family.k
        with pytest.raises(InvalidParameterError):
            MemoryInvertedIndex.from_postings(family, 0, per_func)


class TestReads:
    @pytest.fixture
    def index(self, family):
        minhashes, postings = make_postings(
            [
                (5, 0, 0, 2, 4),
                (5, 0, 6, 8, 10),
                (5, 2, 1, 3, 5),
                (9, 1, 0, 0, 3),
            ]
        )
        per_func = [(minhashes, postings)] + [
            (np.empty(0, dtype=np.uint32), np.empty(0, dtype=POSTING_DTYPE))
        ] * (family.k - 1)
        return MemoryInvertedIndex.from_postings(family, 2, per_func)

    def test_list_length(self, index):
        assert index.list_length(0, 5) == 3
        assert index.list_length(0, 9) == 1
        assert index.list_length(0, 12345) == 0
        assert index.list_length(1, 5) == 0

    def test_load_list(self, index):
        postings = index.load_list(0, 5)
        assert postings.size == 3
        assert postings["text"].tolist() == [0, 0, 2]

    def test_load_absent_list(self, index):
        assert index.load_list(0, 777).size == 0

    def test_load_text_windows(self, index):
        windows = index.load_text_windows(0, 5, 0)
        assert windows.size == 2
        assert set(windows["center"].tolist()) == {2, 8}
        assert index.load_text_windows(0, 5, 1).size == 0

    def test_io_accounting(self, index):
        index.io_stats.reset()
        index.load_list(0, 5)
        assert index.io_stats.bytes_read == 3 * POSTING_BYTES
        index.load_text_windows(0, 5, 2)
        assert index.io_stats.bytes_read == 4 * POSTING_BYTES

    def test_num_postings_and_nbytes(self, index):
        assert index.num_postings == 4
        assert index.nbytes == 4 * POSTING_BYTES

    def test_iter_lists(self, index):
        lists = dict(index.iter_lists(0))
        assert set(lists) == {5, 9}
        assert lists[5].size == 3

    def test_list_lengths(self, index):
        assert sorted(index.list_lengths(0).tolist()) == [1, 3]
        assert index.list_lengths(1).size == 0


class TestRowViews:
    """``posting_rows`` / ``row_postings`` / ``concat_postings`` return
    exactly what record concatenation and indexing return."""

    @pytest.fixture
    def records(self):
        records = np.zeros(9, dtype=POSTING_DTYPE)
        for field_no, name in enumerate(POSTING_DTYPE.names):
            records[name] = np.arange(9) * 10 + field_no
        return records

    @staticmethod
    def assert_same(got, expected):
        assert got.dtype == expected.dtype == POSTING_DTYPE
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_rows_share_the_records_bytes(self, records):
        rows = posting_rows(records)
        assert rows.dtype == np.uint32 and rows.shape == (9, 4)
        assert np.shares_memory(rows, records)
        assert rows[3].tolist() == [30, 31, 32, 33]
        back = row_postings(rows)
        assert np.shares_memory(back, records)
        self.assert_same(back, records)
        order = np.array([4, 0, 8, 4])
        self.assert_same(row_postings(np.take(rows, order, axis=0)), records[order])
        mask = records["text"] % 20 == 0
        self.assert_same(row_postings(rows[mask]), records[mask])

    def test_empty(self, records):
        self.assert_same(concat_postings([]), np.empty(0, dtype=POSTING_DTYPE))
        empty = records[:0]
        assert posting_rows(empty).shape == (0, 4)
        self.assert_same(row_postings(posting_rows(empty)), empty)
        self.assert_same(concat_postings([empty, empty]), np.concatenate([empty, empty]))

    def test_one_part_is_returned_itself(self, records):
        assert concat_postings([records]) is records

    def test_strided_records(self, records):
        strided = records[::2]
        rows = posting_rows(strided)
        assert rows.tolist() == [list(record) for record in strided.tolist()]
        self.assert_same(row_postings(rows), strided)
        parts = [strided, records[1:4], records[::3]]
        self.assert_same(concat_postings(parts), np.concatenate(parts))

    def test_memmap_slices_of_a_raw_index(self, planted_index, tmp_path):
        write_index(planted_index, tmp_path, codec="raw")
        payload = DiskInvertedIndex(tmp_path)._payload
        assert isinstance(payload, np.memmap)
        parts = [payload[5:40], payload[:0], payload[100:101], payload[7:300:3]]
        self.assert_same(concat_postings(parts), np.concatenate(parts))
        rows = posting_rows(payload[5:40])
        assert np.shares_memory(rows, payload)
        self.assert_same(row_postings(rows), np.asarray(payload[5:40]))


class TestListLengthProfile:
    def test_from_built_index(self, planted_index):
        profile = ListLengthProfile.from_index(planted_index)
        assert profile.lengths.size > 0
        assert np.all(np.diff(profile.lengths) >= 0)

    def test_cutoff_monotone_in_fraction(self, planted_index):
        profile = ListLengthProfile.from_index(planted_index)
        c05 = profile.cutoff_for_fraction(0.05)
        c20 = profile.cutoff_for_fraction(0.20)
        assert c20 <= c05

    def test_cutoff_zero_fraction(self, planted_index):
        profile = ListLengthProfile.from_index(planted_index)
        cutoff = profile.cutoff_for_fraction(0.0)
        assert cutoff == int(profile.lengths[-1])

    def test_cutoff_validation(self):
        with pytest.raises(InvalidParameterError):
            ListLengthProfile(np.array([1])).cutoff_for_fraction(1.0)

    def test_empty_profile(self):
        assert ListLengthProfile().cutoff_for_fraction(0.1) == 0
