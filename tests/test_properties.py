"""Hypothesis property-based tests on the core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compact_windows import generate_compact_windows_stack
from repro.core.hashing import HashFamily
from repro.core.intervals import collision_count, interval_scan, max_collisions
from repro.core.verify import (
    Span,
    distinct_jaccard,
    merge_overlapping_spans,
    multiset_jaccard,
)
from repro.index.zonemap import build_zone_map
from rmq import BlockRMQ, SegmentTreeRMQ, SparseTableRMQ
from window_oracle import generate_compact_windows, generate_compact_windows_recursive

token_arrays = st.lists(st.integers(0, 30), min_size=1, max_size=80).map(
    lambda xs: np.asarray(xs, dtype=np.uint32)
)

hash_arrays = st.lists(st.integers(0, 15), min_size=1, max_size=60).map(
    lambda xs: np.asarray(xs, dtype=np.uint32)
)


class TestRMQProperties:
    @given(values=hash_arrays, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_with_reference(self, values, data):
        lo = data.draw(st.integers(0, values.size - 1))
        hi = data.draw(st.integers(lo, values.size - 1))
        reference = lo + int(np.argmin(values[lo : hi + 1]))
        for backend in (SparseTableRMQ, SegmentTreeRMQ, BlockRMQ):
            assert backend(values).query(lo, hi) == reference


class TestCompactWindowProperties:
    @given(hashes=hash_arrays, t=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_generators_identical(self, hashes, t):
        a = {(w.left, w.center, w.right) for w in generate_compact_windows(hashes, t)}
        b = {
            (w.left, w.center, w.right)
            for w in generate_compact_windows_recursive(hashes, t)
        }
        c = {
            (int(r["left"]), int(r["center"]), int(r["right"]))
            for r in generate_compact_windows_stack(hashes, t)
        }
        assert a == b == c

    @given(hashes=hash_arrays, t=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, hashes, t):
        """Theorem 1: every sequence of length >= t in exactly one window."""
        windows = generate_compact_windows(hashes, t)
        n = hashes.size
        for i in range(n):
            for j in range(i + t - 1, n):
                assert sum(1 for w in windows if w.contains(i, j)) == 1

    @given(hashes=hash_arrays, t=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_window_invariants(self, hashes, t):
        for window in generate_compact_windows(hashes, t):
            assert 0 <= window.left <= window.center <= window.right < hashes.size
            assert window.width >= t
            segment = hashes[window.left : window.right + 1]
            assert hashes[window.center] == segment.min()


class TestIntervalProperties:
    intervals_strategy = st.lists(
        st.tuples(st.integers(0, 25), st.integers(0, 10)).map(
            lambda pair: (pair[0], pair[0] + pair[1])
        ),
        min_size=1,
        max_size=10,
    )

    @given(intervals=intervals_strategy, alpha=st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_scan_reports_exact_coverage(self, intervals, alpha):
        reported: dict[int, frozenset] = {}
        for result in interval_scan(intervals, alpha):
            assert len(result.members) >= alpha
            for point in range(result.start, result.end + 1):
                assert point not in reported
                reported[point] = frozenset(result.members)
        lo = min(s for s, _ in intervals)
        hi = max(e for _, e in intervals)
        for point in range(lo, hi + 1):
            members = frozenset(
                i for i, (s, e) in enumerate(intervals) if s <= point <= e
            )
            if len(members) >= alpha:
                assert reported.get(point) == members
            else:
                assert point not in reported

    windows_strategy = st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=8,
    )

    @given(raw=windows_strategy, alpha=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_collision_count_exact_and_complete(self, raw, alpha):
        from repro.core.compact_windows import CompactWindow

        windows = [
            CompactWindow(left, left + mid, left + mid + right)
            for left, mid, right in raw
        ]
        covered: set[tuple[int, int]] = set()
        for rect in collision_count(windows, alpha):
            for (i, j) in rect.iter_spans():
                assert (i, j) not in covered
                covered.add((i, j))
                assert max_collisions(windows, i, j) == rect.count >= alpha
        limit = max(w.right for w in windows) + 1
        for i in range(limit):
            for j in range(i, limit):
                if max_collisions(windows, i, j) >= alpha:
                    assert (i, j) in covered


class TestJaccardProperties:
    @given(a=token_arrays, b=token_arrays)
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        for measure in (distinct_jaccard, multiset_jaccard):
            value = measure(a, b)
            assert 0.0 <= value <= 1.0
            assert measure(b, a) == value

    @given(a=token_arrays)
    @settings(max_examples=40, deadline=None)
    def test_self_similarity(self, a):
        assert distinct_jaccard(a, a) == 1.0
        assert multiset_jaccard(a, a) == 1.0

    @given(a=token_arrays, b=token_arrays)
    @settings(max_examples=60, deadline=None)
    def test_multiset_no_greater_than_distinct_on_sets(self, a, b):
        """When both sides are duplicate-free the two measures coincide."""
        a = np.unique(a)
        b = np.unique(b)
        assert multiset_jaccard(a, b) == distinct_jaccard(a, b)


class TestSketchProperties:
    @given(a=token_arrays, seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_sketch_permutation_invariant(self, a, seed):
        family = HashFamily(k=8, seed=seed)
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(a)
        assert np.array_equal(family.sketch(a), family.sketch(shuffled))

    @given(a=token_arrays, seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_identical_sequences_collide_everywhere(self, a, seed):
        family = HashFamily(k=8, seed=seed)
        assert np.array_equal(family.sketch(a), family.sketch(np.array(a))), (
            "identical inputs must produce identical sketches"
        )


class TestMergeProperties:
    spans_strategy = st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 40), st.integers(0, 8)).map(
            lambda triple: Span(triple[0], triple[1], triple[1] + triple[2])
        ),
        min_size=1,
        max_size=15,
    )

    @given(spans=spans_strategy)
    @settings(max_examples=80, deadline=None)
    def test_merge_preserves_coverage_and_disjointness(self, spans):
        merged = merge_overlapping_spans(spans)
        original = {
            (s.text_id, p) for s in spans for p in range(s.start, s.end + 1)
        }
        covered = {
            (s.text_id, p) for s in merged for p in range(s.start, s.end + 1)
        }
        assert covered == original
        per_text: dict[int, list[Span]] = {}
        for span in merged:
            per_text.setdefault(span.text_id, []).append(span)
        for group in per_text.values():
            ordered = sorted(group, key=lambda s: s.start)
            for first, second in zip(ordered, ordered[1:]):
                assert first.end + 1 < second.start


class TestZoneMapProperties:
    @given(
        ids=st.lists(st.integers(0, 20), min_size=1, max_size=120),
        step=st.integers(1, 10),
        probe=st.integers(0, 22),
    )
    @settings(max_examples=80, deadline=None)
    def test_locate_covers_all_postings(self, ids, step, probe):
        text_ids = np.sort(np.asarray(ids, dtype=np.uint32))
        zone = build_zone_map(text_ids, step)
        lo, hi = zone.locate(probe)
        assert 0 <= lo <= hi <= text_ids.size
        for pos in np.flatnonzero(text_ids == probe):
            assert lo <= pos < hi
