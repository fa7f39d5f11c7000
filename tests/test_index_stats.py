"""Tests for index statistics and prefix cutoff selection."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.index.stats import (
    IndexSummary,
    all_list_lengths,
    cutoff_for_top_fraction,
    zipf_tail_report,
)


class TestIndexSummary:
    def test_fields(self, planted_index):
        summary = IndexSummary.from_index(planted_index)
        assert summary.k == planted_index.family.k
        assert summary.t == planted_index.t
        assert summary.num_postings == planted_index.num_postings
        assert summary.nbytes == planted_index.nbytes
        assert summary.max_list_length >= summary.mean_list_length
        assert summary.num_lists > 0

    def test_lengths_sum_to_postings(self, planted_index):
        lengths = all_list_lengths(planted_index)
        assert int(lengths.sum()) == planted_index.num_postings


class ListLengths:
    """An index reduced to what the cutoff reads: one list-length array
    per hash function."""

    def __init__(self, *per_function):
        self.family = SimpleNamespace(k=len(per_function))
        self._lengths = [np.asarray(lengths, dtype=np.int64) for lengths in per_function]

    def list_lengths(self, func):
        return self._lengths[func]


class TestCutoffSelection:
    def test_monotone(self, planted_index):
        c05 = cutoff_for_top_fraction(planted_index, 0.05)
        c10 = cutoff_for_top_fraction(planted_index, 0.10)
        c20 = cutoff_for_top_fraction(planted_index, 0.20)
        assert c20 <= c10 <= c05

    def test_fraction_respected(self, planted_index):
        """Lists longer than the cutoff hold at most ~the fraction of
        postings, and the cutoff is the smallest length that does; an
        index with no postings has cutoff 0, and fraction 0 marks
        nothing long."""
        cases = [
            (planted_index, 0.10),
            (planted_index, 0.0),
            (ListLengths([]), 0.10),
            (ListLengths([0, 0]), 0.10),
            (ListLengths([5, 1], [3, 3, 8]), 0.0),
            (ListLengths([5, 1], [3, 3, 8]), 0.5),
        ]
        for index, fraction in cases:
            cutoff = cutoff_for_top_fraction(index, fraction)
            lengths = all_list_lengths(index)
            long_mass = int(lengths[lengths > cutoff].sum())
            assert long_mass <= fraction * int(lengths.sum())
            if fraction == 0.0:
                assert cutoff == int(lengths.max())
            if int(lengths.sum()) == 0:
                assert cutoff == 0
            for smaller in lengths[lengths < cutoff]:
                assert int(lengths[lengths > smaller].sum()) > fraction * lengths.sum()

    def test_validation(self, planted_index):
        with pytest.raises(InvalidParameterError):
            cutoff_for_top_fraction(planted_index, 1.0)
        with pytest.raises(InvalidParameterError):
            cutoff_for_top_fraction(planted_index, -0.1)


class TestZipfTail:
    def test_descending(self, planted_index):
        report = zipf_tail_report(planted_index, top=5)
        assert len(report) == 5
        lengths = [length for _, length in report]
        assert lengths == sorted(lengths, reverse=True)

    def test_skew_present(self, planted_index):
        """Zipf corpora must produce a heavy head (the prefix-filter premise)."""
        report = zipf_tail_report(planted_index, top=1)
        lengths = all_list_lengths(planted_index)
        assert report[0][1] > 10 * float(lengths.mean())
