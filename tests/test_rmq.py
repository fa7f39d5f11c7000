"""Tests for the three RMQ backends of the Algorithm 2 oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compact_windows import (
    generate_compact_windows_kwide,
    generate_compact_windows_stack,
)
from repro.exceptions import InvalidParameterError
from rmq import (
    BlockRMQ,
    RMQ_BACKENDS,
    SegmentTreeRMQ,
    SparseTableRMQ,
    make_rmq,
)
from window_oracle import generate_compact_windows

BACKENDS = list(RMQ_BACKENDS.values())


def leftmost_argmin(values: np.ndarray, lo: int, hi: int) -> int:
    """Reference implementation."""
    window = values[lo : hi + 1]
    return lo + int(np.argmin(window))


@pytest.mark.parametrize("backend", BACKENDS)
class TestCorrectness:
    def test_singleton(self, backend):
        rmq = backend(np.array([42]))
        assert rmq.query(0, 0) == 0

    def test_full_range(self, backend):
        values = np.array([5, 3, 8, 1, 9, 2])
        assert backend(values).query(0, 5) == 3

    def test_all_subranges_random(self, backend, rng):
        values = rng.integers(0, 100, size=60)
        rmq = backend(values)
        for lo in range(60):
            for hi in range(lo, 60):
                assert rmq.query(lo, hi) == leftmost_argmin(values, lo, hi)

    def test_leftmost_on_ties(self, backend):
        values = np.array([7, 2, 5, 2, 2, 9])
        rmq = backend(values)
        assert rmq.query(0, 5) == 1
        assert rmq.query(2, 5) == 3
        assert rmq.query(3, 4) == 3

    def test_all_equal(self, backend):
        values = np.zeros(17, dtype=np.int64)
        rmq = backend(values)
        for lo in range(17):
            for hi in range(lo, 17):
                assert rmq.query(lo, hi) == lo

    def test_sorted_ascending(self, backend):
        values = np.arange(33)
        rmq = backend(values)
        assert rmq.query(5, 30) == 5

    def test_sorted_descending(self, backend):
        values = np.arange(33)[::-1].copy()
        rmq = backend(values)
        assert rmq.query(5, 30) == 30

    def test_invalid_ranges(self, backend):
        rmq = backend(np.array([1, 2, 3]))
        with pytest.raises(InvalidParameterError):
            rmq.query(2, 1)
        with pytest.raises(InvalidParameterError):
            rmq.query(-1, 2)
        with pytest.raises(InvalidParameterError):
            rmq.query(0, 3)

    def test_empty_input_rejected(self, backend):
        with pytest.raises(InvalidParameterError):
            backend(np.array([]))

    def test_two_dimensional_rejected(self, backend):
        with pytest.raises(InvalidParameterError):
            backend(np.zeros((3, 3)))


class TestBackendsAgree:
    def test_random_arrays(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 200))
            values = rng.integers(0, 20, size=n)  # many ties
            structures = [backend(values) for backend in BACKENDS]
            for _ in range(50):
                lo = int(rng.integers(0, n))
                hi = int(rng.integers(lo, n))
                answers = {s.query(lo, hi) for s in structures}
                assert len(answers) == 1


class TestBlockRMQ:
    def test_custom_block_size(self, rng):
        values = rng.integers(0, 50, size=100)
        rmq = BlockRMQ(values, block_size=7)
        for _ in range(100):
            lo = int(rng.integers(0, 100))
            hi = int(rng.integers(lo, 100))
            assert rmq.query(lo, hi) == leftmost_argmin(values, lo, hi)

    def test_invalid_block_size(self):
        with pytest.raises(InvalidParameterError):
            BlockRMQ(np.array([1, 2]), block_size=0)

    def test_single_block(self):
        rmq = BlockRMQ(np.array([4, 2, 6]), block_size=10)
        assert rmq.query(0, 2) == 1


class TestFactory:
    def test_known_backends(self):
        values = np.array([3, 1, 2])
        assert isinstance(make_rmq(values, "sparse"), SparseTableRMQ)
        assert isinstance(make_rmq(values, "segment"), SegmentTreeRMQ)
        assert isinstance(make_rmq(values, "block"), BlockRMQ)

    def test_unknown_backend(self):
        with pytest.raises(InvalidParameterError):
            make_rmq(np.array([1]), "btree")

    def test_default_is_sparse(self):
        assert isinstance(make_rmq(np.array([1, 2])), SparseTableRMQ)


class TestBackendAblation:
    """The RMQ ablation: Algorithm 2 on each backend, the monotone stack
    and the production kernel all emit the same windows."""

    def test_backends_emit_identical_windows(self):
        rng = np.random.default_rng(3)
        hashes = rng.integers(0, 1 << 31, size=40_000).astype(np.uint32)
        reference = generate_compact_windows_stack(hashes, 50)
        expected = {
            (int(w["left"]), int(w["center"]), int(w["right"])) for w in reference
        }
        assert len(expected) > 1_000
        for backend in RMQ_BACKENDS:
            got = {
                (w.left, w.center, w.right)
                for w in generate_compact_windows(hashes, 50, backend)
            }
            assert got == expected, backend
        kernel = generate_compact_windows_kwide(hashes[None, :], 50)[0]
        assert np.array_equal(kernel, reference)
