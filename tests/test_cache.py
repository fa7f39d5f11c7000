"""Tests for the LRU inverted-list cache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.exceptions import InvalidParameterError
from repro.index.cache import CachedIndexReader, CacheStats
from repro.index.inverted import IOStats, POSTING_BYTES, POSTING_DTYPE

from index_lists import func_lists


class FakeReader:
    """Deterministic reader: list (func, h) has ``h`` postings."""

    def __init__(self, k: int = 4):
        self.family = HashFamily(k=k, seed=0)
        self.t = 10
        self.io_stats = IOStats()

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        return np.asarray(sketch, dtype=np.int64)

    def load_list(self, func, minhash):
        if np.ndim(func):
            return [self.load_list(f, m) for f, m in zip(func, minhash)]
        postings = np.zeros(int(minhash), dtype=POSTING_DTYPE)
        postings["text"] = np.arange(int(minhash))
        self.io_stats.add(int(minhash) * POSTING_BYTES)
        return postings

    def load_texts_windows(self, func, minhash, text_ids):
        if np.ndim(func):
            return [
                self.load_texts_windows(f, m, text_ids) for f, m in zip(func, minhash)
            ]
        postings = self.load_list(func, minhash)
        return postings[np.isin(postings["text"], text_ids)]


@pytest.fixture
def cached(planted_index):
    planted_index.io_stats.reset()
    return CachedIndexReader(planted_index, capacity_bytes=1 << 20)


def first_list(index):
    for func in range(index.family.k):
        for minhash, postings in func_lists(index, func).items():
            if postings.size:
                return func, minhash, postings
    raise AssertionError("index is empty")


class TestBasics:
    def test_capacity_validated(self, planted_index):
        with pytest.raises(InvalidParameterError):
            CachedIndexReader(planted_index, capacity_bytes=0)

    def test_passthrough_metadata(self, cached, planted_index):
        assert cached.family == planted_index.family
        assert cached.t == planted_index.t
        assert cached.num_postings == planted_index.num_postings
        assert cached.nbytes == planted_index.nbytes

    def test_list_contents_identical(self, cached, planted_index):
        func, minhash, postings = first_list(planted_index)
        assert np.array_equal(cached.load_list(func, minhash), postings)

    def test_list_length_passthrough(self, cached, planted_index):
        func, minhash, postings = first_list(planted_index)
        sketch = np.full(planted_index.family.k, minhash, dtype=np.int64)
        assert cached.sketch_list_lengths(sketch)[func] == postings.size
        cached.load_list(func, minhash)
        assert cached.sketch_list_lengths(sketch)[func] == postings.size


class TestCaching:
    def test_second_read_hits(self, cached):
        func, minhash, _ = first_list(cached.inner)
        cached.load_list(func, minhash)
        assert cached.misses == 1 and cached.hits == 0
        cached.load_list(func, minhash)
        assert cached.hits == 1

    def test_hit_costs_no_io(self, cached):
        func, minhash, postings = first_list(cached.inner)
        cached.load_list(func, minhash)
        before = cached.io_stats.bytes_read
        cached.load_list(func, minhash)
        assert cached.io_stats.bytes_read == before

    def test_point_read_served_from_cached_list(self, cached):
        func, minhash, postings = first_list(cached.inner)
        cached.load_list(func, minhash)
        text_id = int(postings["text"][0])
        before = cached.io_stats.bytes_read
        windows = cached.load_texts_windows(func, minhash, [text_id])
        assert cached.io_stats.bytes_read == before
        expected = postings[postings["text"] == text_id]
        assert np.array_equal(windows, expected)

    def test_point_read_uncached_delegates(self, cached):
        func, minhash, postings = first_list(cached.inner)
        text_id = int(postings["text"][0])
        windows = cached.load_texts_windows(func, minhash, [text_id])
        expected = postings[postings["text"] == text_id]
        assert np.array_equal(windows, expected)

    def test_eviction_respects_capacity(self, planted_index):
        func, minhash, postings = first_list(planted_index)
        tiny = CachedIndexReader(
            planted_index, capacity_bytes=max(POSTING_BYTES * 8, 64)
        )
        for mh in func_lists(planted_index, func):
            tiny.load_list(func, mh)
            assert tiny.cached_bytes <= tiny._capacity

    def test_oversized_list_bypasses(self, planted_index):
        func, minhash, postings = first_list(planted_index)
        tiny = CachedIndexReader(planted_index, capacity_bytes=1)
        tiny.load_list(func, minhash)
        assert tiny.cached_bytes == 0
        assert tiny.stats().admission_rejections == 1

    def test_clear(self, cached):
        func, minhash, _ = first_list(cached.inner)
        cached.load_list(func, minhash)
        cached.clear()
        assert cached.cached_bytes == 0
        cached.load_list(func, minhash)
        assert cached.misses == 2

    def test_hit_rate(self, cached):
        func, minhash, _ = first_list(cached.inner)
        assert cached.hit_rate == 0.0
        cached.load_list(func, minhash)
        cached.load_list(func, minhash)
        assert cached.hit_rate == pytest.approx(0.5)


class TestCountersAndStats:
    """ISSUE 1 satellite: hits/misses/evictions counters + stats()."""

    def test_eviction_order_is_lru(self):
        # Capacity for exactly two 4-posting lists.
        cache = CachedIndexReader(FakeReader(), capacity_bytes=8 * POSTING_BYTES)
        cache.load_list(0, 4)  # A
        cache.load_list(1, 4)  # B
        cache.load_list(0, 4)  # touch A -> B is now least recently used
        cache.load_list(2, 4)  # C evicts B, not A
        assert cache.evictions == 1
        assert list(cache._lists) == [(0, 4), (2, 4)]  # coldest first
        assert cache.stats().admission_rejections == 0
        before = cache.io_stats.bytes_read
        cache.load_list(0, 4)  # A still cached
        assert cache.io_stats.bytes_read == before
        cache.load_list(1, 4)  # B was evicted -> re-read
        assert cache.io_stats.bytes_read > before

    def test_eviction_counter_counts_every_victim(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=8 * POSTING_BYTES)
        cache.load_list(0, 4)
        cache.load_list(1, 4)
        cache.load_list(2, 8)  # needs the whole budget: evicts both
        assert cache.evictions == 2

    def test_cache_hit_reports_zero_io_bytes(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=1 << 20)
        cache.load_list(0, 16)
        before = cache.io_stats.bytes_read
        cache.load_list(0, 16)
        cache.load_texts_windows(0, 16, [3])
        assert cache.io_stats.bytes_read == before

    def test_stats_snapshot(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=1 << 20)
        cache.load_list(0, 4)
        cache.load_list(0, 4)
        snap = cache.stats()
        assert isinstance(snap, CacheStats)
        assert snap.hits == 1 and snap.misses == 1 and snap.evictions == 0
        assert snap.cached_bytes == 4 * POSTING_BYTES
        assert snap.capacity_bytes == 1 << 20
        assert snap.hit_rate == pytest.approx(0.5)
        # Snapshots are immutable and decoupled from later activity.
        cache.load_list(1, 4)
        assert snap.misses == 1

    def test_stats_count_lists(self):
        """ISSUE 3 satellite: stats() reports cached and pinned lists."""
        cache = CachedIndexReader(FakeReader(), capacity_bytes=1 << 20)
        cache.load_list(0, 4)
        cache.load_list(1, 8)
        cache.pin(2, 4)
        snap = cache.stats()
        assert snap.cached_lists == 3
        assert snap.pinned_lists == 1
        assert snap.pinned_bytes == 4 * POSTING_BYTES
        assert snap.cached_bytes == 16 * POSTING_BYTES

    def test_stats_to_dict_is_json_ready(self):
        import json

        cache = CachedIndexReader(FakeReader(), capacity_bytes=1 << 20)
        cache.load_list(0, 4)
        cache.load_list(0, 4)
        payload = cache.stats().to_dict()
        assert payload["hits"] == 1 and payload["misses"] == 1
        assert payload["hit_rate"] == pytest.approx(0.5)
        assert payload["cached_lists"] == 1 and payload["pinned_lists"] == 0
        json.dumps(payload)


class TestPinning:
    """ISSUE 1 tentpole support: batch-pinned lists never evict."""

    def test_pinned_list_survives_pressure(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=8 * POSTING_BYTES)
        assert cache.pin(0, 4)
        cache.load_list(1, 4)
        cache.load_list(2, 4)  # pressure: must evict (1, 4), not the pin
        before = cache.io_stats.bytes_read
        cache.load_list(0, 4)
        assert cache.io_stats.bytes_read == before
        assert cache.pinned_bytes == 4 * POSTING_BYTES

    def test_unpin_restores_lru(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=8 * POSTING_BYTES)
        cache.pin(0, 4)
        cache.unpin(0, 4)
        assert cache.pinned_bytes == 0
        cache.load_list(1, 4)
        cache.load_list(2, 8)  # now the old pin may evict
        assert cache.evictions == 2

    def test_pins_are_counted_per_call(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=8 * POSTING_BYTES)
        assert cache.pin(np.array([0, 0]), np.array([4, 4])) == [True, True]
        assert cache.pin(0, 4)
        cache.unpin(np.array([0, 0]), np.array([4, 4]))  # one call's pin
        cache.load_list(1, 4)
        cache.load_list(2, 4)  # pressure: the other call's pin still holds
        assert cache.stats().pinned_lists == 1 and cache.load_list(0, 4).size == 4
        assert cache.evictions == 1
        cache.unpin(0, 4)
        cache.unpin(0, 4)  # holding no pin: ignored
        assert cache.stats().pinned_lists == 0

    def test_refused_pin_is_not_released_for_others(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=4 * POSTING_BYTES)
        assert cache.pin(0, 4)
        # Everything is pinned, so this call pins nothing: releasing
        # what it pinned must not release the first call's pin.
        assert cache.pin(np.array([1, 0]), np.array([4, 4])) == [False, True]
        cache.unpin(np.array([0]), np.array([4]))
        assert cache.stats().pinned_lists == 1

    def test_oversized_pin_refused(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=POSTING_BYTES)
        assert not cache.pin(0, 100)
        assert cache.pinned_bytes == 0

    def test_pin_is_idempotent(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=1 << 20)
        assert cache.pin(0, 4)
        misses = cache.misses
        assert cache.pin(0, 4)
        assert cache.misses == misses

    def test_all_pinned_blocks_admission_not_reads(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=8 * POSTING_BYTES)
        cache.pin(0, 4)
        cache.pin(1, 4)
        postings = cache.load_list(2, 4)  # nothing evictable: uncached read
        assert postings.size == 4
        assert cache.cached_bytes == 8 * POSTING_BYTES
        snap = cache.stats()
        assert snap.evictions == 0 and snap.admission_rejections == 1

    def test_clear_drops_pins(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=1 << 20)
        cache.pin(0, 4)
        cache.clear()
        assert cache.pinned_bytes == 0 and cache.cached_bytes == 0


class TestThreadSafety:
    """ISSUE 3 satellite: the cache is shared across server workers."""

    def test_concurrent_mixed_workload_stays_consistent(self):
        # Small capacity on purpose: constant admission/eviction churn
        # maximises the chance of torn bookkeeping without the lock.
        cache = CachedIndexReader(FakeReader(), capacity_bytes=24 * POSTING_BYTES)
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            held: list[tuple[int, int]] = []
            try:
                barrier.wait()
                for _ in range(400):
                    op = int(rng.integers(0, 10))
                    minhash = int(rng.integers(1, 12))
                    func = int(rng.integers(0, 4))
                    if op < 6:
                        postings = cache.load_list(func, minhash)
                        assert postings.size == minhash
                        assert postings["text"][-1] == minhash - 1
                    elif op < 8:
                        windows = cache.load_texts_windows(func, minhash, [0])
                        assert windows.size == 1
                    elif op == 8:
                        if cache.pin(func, minhash):
                            held.append((func, minhash))
                    elif held:
                        cache.unpin(*held.pop())
                for key in held:
                    cache.unpin(*key)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        # Every worker released exactly the pins it took.
        snap = cache.stats()
        assert snap.cached_bytes <= snap.capacity_bytes
        assert snap.pinned_bytes == 0 and snap.pinned_lists == 0
        # Internal bookkeeping survived the churn: the byte counter
        # matches the lists actually resident.
        resident = sum(
            postings.nbytes for postings in cache._lists.values()
        )
        assert snap.cached_bytes == resident
        assert snap.hits + snap.misses > 0

    def test_concurrent_repeat_reads_all_identical(self):
        cache = CachedIndexReader(FakeReader(), capacity_bytes=1 << 20)
        expected = cache.load_list(0, 8).copy()
        results: list[np.ndarray] = []
        lock = threading.Lock()

        def worker() -> None:
            for _ in range(50):
                postings = cache.load_list(0, 8)
                with lock:
                    results.append(postings)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(results) == 300
        for postings in results:
            assert np.array_equal(postings, expected)


class TestSearchThroughCache:
    def test_results_identical(self, planted_data, planted_index):
        query = np.asarray(planted_data.corpus[0])[:40]
        direct = NearDuplicateSearcher(planted_index).search(query, 0.8)
        cached_reader = CachedIndexReader(planted_index)
        through_cache = NearDuplicateSearcher(cached_reader).search(query, 0.8)
        as_set = lambda res: {
            (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
            for m in res.matches
            for r in m.rectangles
        }
        assert as_set(direct) == as_set(through_cache)

    def test_repeat_queries_hit(self, planted_data, planted_index):
        cached_reader = CachedIndexReader(planted_index)
        searcher = NearDuplicateSearcher(cached_reader)
        query = np.asarray(planted_data.corpus[0])[:40]
        searcher.search(query, 0.8)
        misses_after_first = cached_reader.misses
        lists_after_first = cached_reader.stats().cached_lists
        hits_after_first = cached_reader.hits
        searcher.search(query, 0.8)
        # The repeat query loads no new lists; the only permitted new
        # misses are point-read fallthroughs into lists the cache never
        # admitted (counted since the accounting fix), which repeat 1:1.
        assert cached_reader.stats().cached_lists == lists_after_first
        assert cached_reader.misses - misses_after_first <= misses_after_first
        assert cached_reader.hits > hits_after_first
