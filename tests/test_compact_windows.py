"""Tests for compact-window generation (Algorithm 2 and variants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compact_windows import (
    CompactWindow,
    WINDOW_DTYPE,
    array_to_windows,
    enumerate_covered_sequences,
    generate_compact_windows_stack,
    window_minhashes,
    windows_to_array,
)
from repro.core.theory import expected_window_count
from repro.exceptions import InvalidParameterError
from window_oracle import generate_compact_windows, generate_compact_windows_recursive


def window_set(windows) -> set[tuple[int, int, int]]:
    if isinstance(windows, np.ndarray):
        return {
            (int(w["left"]), int(w["center"]), int(w["right"])) for w in windows
        }
    return {(w.left, w.center, w.right) for w in windows}


class TestCompactWindow:
    def test_width(self):
        assert CompactWindow(2, 5, 9).width == 8

    def test_contains(self):
        window = CompactWindow(2, 5, 9)
        assert window.contains(2, 5)
        assert window.contains(5, 5)
        assert window.contains(3, 7)
        assert not window.contains(6, 9)  # i > center
        assert not window.contains(2, 4)  # j < center
        assert not window.contains(1, 9)  # i < left
        assert not window.contains(2, 10)  # j > right

    def test_paper_example(self):
        """Figure 1: hash values placing the minimum at position 13 (1-based)."""
        # 0-based: the minimum is at index 12; window (0, 12, 16) covers
        # all sequences starting <= 12 and ending >= 12.
        window = CompactWindow(0, 12, 16)
        assert window.contains(0, 16)
        assert window.contains(12, 12)
        assert not window.contains(13, 16)


class TestGenerators:
    def test_threshold_validated(self):
        for generator in (
            generate_compact_windows,
            generate_compact_windows_recursive,
            generate_compact_windows_stack,
        ):
            with pytest.raises(InvalidParameterError):
                generator(np.array([1, 2, 3]), 0)

    def test_short_input_yields_nothing(self):
        hashes = np.array([5, 1, 7], dtype=np.uint32)
        assert generate_compact_windows(hashes, 4) == []
        assert generate_compact_windows_stack(hashes, 4).size == 0

    def test_empty_input(self):
        empty = np.array([], dtype=np.uint32)
        assert generate_compact_windows(empty, 1) == []
        assert generate_compact_windows_stack(empty, 1).size == 0

    def test_t1_generates_one_window_per_position(self, rng):
        hashes = rng.permutation(100).astype(np.uint32)
        windows = generate_compact_windows_stack(hashes, 1)
        assert windows.size == 100
        assert set(windows["center"].tolist()) == set(range(100))

    def test_root_window_spans_text(self, rng):
        hashes = rng.permutation(64).astype(np.uint32)
        windows = generate_compact_windows(hashes, 1)
        root = next(w for w in windows if w.left == 0 and w.right == 63)
        assert hashes[root.center] == hashes.min()

    def test_all_generators_agree_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 150))
            t = int(rng.integers(1, 20))
            hashes = rng.integers(0, 40, size=n).astype(np.uint32)
            a = window_set(generate_compact_windows(hashes, t))
            b = window_set(generate_compact_windows_recursive(hashes, t))
            c = window_set(generate_compact_windows_stack(hashes, t))
            assert a == b == c

    @pytest.mark.parametrize("backend", ["sparse", "segment", "block"])
    def test_rmq_backends_agree(self, backend, rng):
        hashes = rng.integers(0, 30, size=80).astype(np.uint32)
        base = window_set(generate_compact_windows(hashes, 5))
        assert window_set(generate_compact_windows(hashes, 5, backend)) == base

    def test_duplicate_tokens_tie_break(self):
        """All-equal hashes: leftmost tie-break gives a left-leaning chain."""
        hashes = np.zeros(6, dtype=np.uint32)
        windows = window_set(generate_compact_windows_stack(hashes, 1))
        assert (0, 0, 5) in windows
        assert len(windows) == 6

    def test_long_text_no_recursion_error(self):
        """The iterative generators must survive adversarial (sorted) input."""
        hashes = np.arange(50_000, dtype=np.uint32)
        windows = generate_compact_windows_stack(hashes, 1000)
        assert windows.size > 0
        iterative = generate_compact_windows(hashes, 40_000)
        assert window_set(iterative) == window_set(
            generate_compact_windows_stack(hashes, 40_000)
        )


class TestPartitionProperty:
    """Theorem 1, second part: every sequence of length >= t lies in
    exactly one valid compact window."""

    @pytest.mark.parametrize("t", [1, 2, 5, 9])
    def test_every_sequence_covered_once(self, t, rng):
        n = 70
        hashes = rng.integers(0, 25, size=n).astype(np.uint32)  # many ties
        windows = generate_compact_windows(hashes, t)
        for i in range(n):
            for j in range(i + t - 1, n):
                cover = sum(1 for w in windows if w.contains(i, j))
                assert cover == 1, f"sequence ({i},{j}) covered {cover} times"

    def test_no_window_narrower_than_t(self, rng):
        hashes = rng.integers(0, 1000, size=200).astype(np.uint32)
        for t in (3, 10, 50):
            for window in generate_compact_windows(hashes, t):
                assert window.width >= t

    def test_windows_have_minimum_at_center(self, rng):
        hashes = rng.integers(0, 100, size=120).astype(np.uint32)
        for window in generate_compact_windows(hashes, 4):
            segment = hashes[window.left : window.right + 1]
            assert hashes[window.center] == segment.min()


class TestExpectedCount:
    def test_matches_theorem_on_average(self):
        """Measured mean window count ~ 2(n+1)/(t+1) - 1 over random hashes."""
        n, t = 150, 8
        counts = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            hashes = rng.permutation(10**6)[:n].astype(np.uint32)
            counts.append(generate_compact_windows_stack(hashes, t).size)
        expected = expected_window_count(n, t)
        assert abs(float(np.mean(counts)) - expected) < 0.05 * expected

    def test_paper_example_count(self):
        """Example 1: n=17, t=5 gives expectation 2*18/6 - 1 = 5."""
        assert expected_window_count(17, 5) == 5.0


class TestConversions:
    def test_roundtrip(self, rng):
        hashes = rng.integers(0, 50, size=40).astype(np.uint32)
        windows = generate_compact_windows(hashes, 3)
        array = windows_to_array(windows)
        assert array.dtype == WINDOW_DTYPE
        assert array_to_windows(array) == windows

    def test_window_minhashes(self, rng):
        hashes = rng.integers(0, 50, size=40).astype(np.uint32)
        array = generate_compact_windows_stack(hashes, 3)
        minhashes = window_minhashes(array, hashes)
        for rec, mh in zip(array, minhashes):
            assert hashes[int(rec["center"])] == mh

    def test_enumerate_covered_sequences(self):
        window = CompactWindow(1, 3, 5)
        spans = enumerate_covered_sequences(window, min_length=1)
        assert (1, 3) in spans and (3, 5) in spans and (3, 3) in spans
        assert all(i <= 3 <= j for i, j in spans)
        long_spans = enumerate_covered_sequences(window, min_length=4)
        assert all(j - i + 1 >= 4 for i, j in long_spans)
        assert (1, 4) in long_spans
