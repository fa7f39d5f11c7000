"""The two-tier read cache: LRU list tier, single-flight misses,
result memoization — and above all byte-identity: every cached
configuration must return exactly what the uncached reader returns."""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.engine import NearDupEngine
from repro.exceptions import InvalidParameterError
from repro.index.cache import CachedIndexReader, CacheStats
from repro.index.inverted import IOStats, POSTING_DTYPE
from repro.index.lsm import LiveIndexConfig
from repro.index.lsm.live import LiveIndexStats, LiveSearcher
from repro.index.storage import DiskInvertedIndex, write_index
from repro.query.executor import BatchQueryExecutor
from repro.query.planner import plan_batch, query_key
from repro.query.resultcache import CachingSearcher, ResultCache, ResultCacheStats


def canon(result):
    """A search result's observable content (stats excluded)."""
    return (
        result.k,
        result.theta,
        result.beta,
        result.t,
        [(match.text_id, match.rectangles) for match in result.matches],
    )


# ----------------------------------------------------------------------
# Byte-identity of both supported configurations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def packed_dir(planted_index, tmp_path_factory):
    directory = tmp_path_factory.mktemp("multitier") / "index"
    write_index(planted_index, directory, codec="packed")
    return directory


@pytest.fixture(scope="module")
def query_set(planted_data):
    corpus = planted_data.corpus
    queries = []
    for text_id in (0, 3, 7, 16, 40, 97):
        tokens = np.asarray(corpus[text_id], dtype=np.uint32)
        queries.append(tokens[:48])
        queries.append(tokens[10:90])
    queries.append(queries[0])  # exact repeat exercises the result tier
    return queries


@pytest.fixture(scope="module")
def baseline(packed_dir, query_set):
    searcher = NearDuplicateSearcher(DiskInvertedIndex(packed_dir))
    return [canon(searcher.search(query, 0.8)) for query in query_set]


#: A cache that holds everything, and one too small to hold anything
#: (which must degrade to correctness, not to wrong answers).
CAPACITIES = [1 << 20, 1024]


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("result_cache", [False, True])
def test_tiers_byte_identical(
    packed_dir, query_set, baseline, capacity, result_cache
):
    reader = CachedIndexReader(DiskInvertedIndex(packed_dir), capacity)
    searcher = NearDuplicateSearcher(reader)
    if result_cache:
        searcher = CachingSearcher(searcher)
    for _ in range(2):  # second pass runs every warm path
        got = [canon(searcher.search(query, 0.8)) for query in query_set]
        assert got == baseline


class TestHypothesisIdentity:
    """Random queries: both configurations answer like the raw index."""

    @given(
        tokens=st.lists(
            st.integers(min_value=0, max_value=1023), min_size=30, max_size=90
        ),
        theta=st.sampled_from([0.6, 0.8, 1.0]),
        capacity=st.sampled_from(CAPACITIES),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cached_matches_uncached(self, planted_index, tokens, theta, capacity):
        query = np.asarray(tokens, dtype=np.uint32)
        expected = canon(
            NearDuplicateSearcher(planted_index).search(query, theta)
        )
        plain = NearDuplicateSearcher(CachedIndexReader(planted_index, capacity))
        for searcher in (plain, CachingSearcher(plain)):
            assert canon(searcher.search(query, theta)) == expected
            assert canon(searcher.search(query, theta)) == expected

    @given(
        texts=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=255), min_size=40, max_size=90
            ),
            min_size=2,
            max_size=5,
        ),
        theta=st.sampled_from([0.6, 0.8, 1.0]),
        capacity=st.sampled_from(CAPACITIES),
    )
    @settings(max_examples=15, deadline=None)
    def test_live_generation_bumps(self, texts, theta, capacity):
        """Cached searchers that outlive appends and seals keep
        answering like an uncached search of the current generation."""
        with tempfile.TemporaryDirectory() as scratch:
            engine = NearDupEngine.live(
                Path(scratch) / "live",
                k=8,
                t=25,
                vocab_size=256,
                seed=5,
                config=LiveIndexConfig(background_compaction=False),
            )
            try:
                cached = [
                    LiveSearcher(
                        engine.live_index, cache_bytes=capacity, corpus=engine.corpus
                    ),
                    engine.cached_searcher(cache_bytes=capacity),
                ]
                seen: list[np.ndarray] = []
                for step, text in enumerate(texts):
                    seen.append(np.asarray(text, dtype=np.uint32))
                    engine.append_texts([seen[-1]])
                    if step == 1:
                        engine.live_index.seal()  # a run beside the memtable
                    for query in (seen[-1][:48], seen[0][5:60]):
                        expected = canon(engine.searcher.search(query, theta))
                        for searcher in cached:
                            assert canon(searcher.search(query, theta)) == expected
            finally:
                engine.close()


# ----------------------------------------------------------------------
# Result cache semantics
# ----------------------------------------------------------------------
class TestResultCache:
    def test_memoizes_and_distinguishes_params(self, planted_data, planted_index):
        searcher = CachingSearcher(
            NearDuplicateSearcher(planted_index, corpus=planted_data.corpus)
        )
        memo = searcher.result_cache
        query = np.asarray(planted_data.corpus[0], dtype=np.uint32)[:48]
        first = searcher.search(query, 0.8)
        assert canon(searcher.search(query, 0.8)) == canon(first)
        assert (memo.hits, memo.misses) == (1, 1)
        # A different theta or verify flag is a different entry, not a
        # collision.
        searcher.search(query, 0.9)
        searcher.search(query, 0.8, verify=True)
        assert (memo.hits, memo.misses) == (1, 3)
        assert memo.stats().entries == 3
        # The default spelled explicitly hits the same entry.
        again = searcher.search(query, 0.8, verify=False)
        assert canon(again) == canon(first)
        assert (memo.hits, memo.misses) == (2, 3)

    def test_batched_queries_hit_the_memo(self, planted_data, planted_index):
        """The executor runs planned entries, not ``search``; the memo
        answers them too, keyed by the plan's sketch."""
        searcher = CachingSearcher(
            NearDuplicateSearcher(CachedIndexReader(planted_index))
        )
        queries = [
            np.asarray(planted_data.corpus[i], dtype=np.uint32)[:48]
            for i in range(4)
        ]
        direct = [canon(searcher.search(query, 0.8)) for query in queries]
        misses = searcher.result_cache.misses
        batch = BatchQueryExecutor(searcher).execute(queries, 0.8)
        assert [canon(result) for result in batch.results] == direct
        assert searcher.result_cache.hits == len(queries)
        assert searcher.result_cache.misses == misses

    def test_repeated_search_reports_no_work(self, planted_data, packed_dir):
        """A hit did no I/O and loaded no list, and its stats say so."""
        searcher = CachingSearcher(NearDuplicateSearcher(DiskInvertedIndex(packed_dir)))
        query = np.asarray(planted_data.corpus[3], dtype=np.uint32)[:48]
        first = searcher.search(query, 0.8)
        assert first.stats.io_bytes > 0 and first.stats.lists_loaded > 0
        hits = searcher.result_cache.hits
        again = searcher.search(query, 0.8)
        assert searcher.result_cache.hits == hits + 1
        assert again.stats.io_bytes == 0
        assert again.stats.lists_loaded == 0
        assert again.stats.texts_matched == first.stats.texts_matched
        assert canon(again) == canon(first)

    def test_repeated_batch_reports_no_work(self, planted_data, packed_dir):
        searcher = CachingSearcher(
            NearDuplicateSearcher(CachedIndexReader(DiskInvertedIndex(packed_dir)))
        )
        queries = [
            np.asarray(planted_data.corpus[i], dtype=np.uint32)[:48]
            for i in range(10)
        ]
        with BatchQueryExecutor(searcher) as executor:
            cold = executor.execute(queries, 0.8)
            warm = executor.execute(queries, 0.8)
        assert cold.stats.io_bytes > 0 and cold.stats.lists_loaded > 0
        assert searcher.result_cache.hits == len(queries)
        assert warm.stats.lists_loaded == 0
        assert warm.stats.io_bytes == 0
        assert [canon(r) for r in warm.results] == [canon(r) for r in cold.results]

    def test_query_key_includes_tokens_only_under_verify(self):
        sketch = np.arange(8, dtype=np.uint64)
        a = np.array([1, 2], np.uint32)
        b = np.array([1, 3], np.uint32)
        assert query_key(sketch, a, True) != query_key(sketch, b, True)
        assert query_key(sketch, a, False) == query_key(sketch, b, False)
        assert query_key(sketch, a, True) != query_key(sketch, a, False)

    def test_lru_bound_and_eviction(self):
        cache = ResultCache(max_entries=2)
        for i in range(3):
            key = bytes([i])
            _, generation = cache.lookup(key)
            cache.store(key, f"r{i}", generation)
        stats = cache.stats()
        assert stats.entries == 2 and stats.evictions == 1

    def test_generation_gate_drops_stale_store(self):
        generation = [0]
        cache = ResultCache(generation_fn=lambda: generation[0])
        key = b"query"
        _, token = cache.lookup(key)
        generation[0] += 1  # index moved while we computed
        cache.store(key, "stale", token)
        result, _ = cache.lookup(key)
        assert result is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InvalidParameterError):
            ResultCache(max_entries=0)

    def test_live_generation_bump_invalidates(self, tmp_path):
        engine = NearDupEngine.live(
            tmp_path / "live", k=8, t=25, vocab_size=256, seed=5
        )
        try:
            rng = np.random.default_rng(11)
            base = rng.integers(0, 256, size=64).astype(np.uint32)
            engine.append_texts([base])
            searcher = engine.cached_searcher(cache_bytes=1 << 20)
            assert isinstance(searcher, CachingSearcher)
            memo = searcher.result_cache
            first = searcher.search(base, 0.8)
            assert canon(searcher.search(base, 0.8)) == canon(first)
            assert (memo.hits, memo.misses) == (1, 1)
            # Ingest a near-duplicate: the generation moves, the memo
            # must not serve the pre-ingest result.
            mutated = base.copy()
            mutated[5] = (mutated[5] + 1) % 256
            engine.append_texts([mutated])
            fresh = searcher.search(base, 0.8)
            assert (memo.hits, memo.misses) == (1, 2)
            assert fresh.num_texts >= first.num_texts
            assert searcher.result_cache.stats().invalidations >= 1
            expected = canon(engine.searcher.search(base, 0.8))
            assert canon(fresh) == expected
        finally:
            engine.close()


def test_plan_of_an_older_generation_is_planned_again(tmp_path):
    """A live batch planned before an append runs on the new generation
    with fresh list lengths, not on the plan's stale ones."""
    engine = NearDupEngine.live(tmp_path / "live", k=8, t=25, vocab_size=256, seed=5)
    try:
        rng = np.random.default_rng(3)
        engine.append_texts([rng.integers(0, 128, size=64).astype(np.uint32)])
        # Tokens the index has never seen: every list of the query is empty.
        query = rng.integers(128, 256, size=64).astype(np.uint32)
        searcher = LiveSearcher(
            engine.live_index, cache_bytes=1 << 20, corpus=engine.corpus
        )
        plan = plan_batch(searcher, [query], 0.8)
        assert plan.entries[0].short_funcs.size == 0
        engine.append_texts([query])
        batch = BatchQueryExecutor(searcher).execute_plan(plan, 0.8)
        assert batch.results[0].num_texts == 1
        assert canon(batch.results[0]) == canon(engine.searcher.search(query, 0.8))
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Single-flight miss coalescing
# ----------------------------------------------------------------------
class _SlowCountingReader:
    """Inner-reader stub: counts loads, sleeps to widen the miss race."""

    def __init__(self, delay: float = 0.05, fail_first: bool = False):
        self.family = HashFamily(k=4, seed=0)
        self.t = 25
        self.io_stats = IOStats()
        self.delay = delay
        self.fail_first = fail_first
        self.loads: dict[tuple[int, int], int] = {}
        self.calls = 0
        self._lock = threading.Lock()

    def load_list(self, func, minhash):
        """Vector form only (the cache always reads its misses that way);
        ``loads`` counts keys, one sleep per call."""
        keys = list(zip(np.asarray(func).tolist(), np.asarray(minhash).tolist()))
        with self._lock:
            self.calls += 1
            counts = [self.loads.get(key, 0) + 1 for key in keys]
            self.loads.update(zip(keys, counts))
        if self.fail_first and 1 in counts:
            raise OSError("transient read failure")
        time.sleep(self.delay)
        out = []
        for _, minhash in keys:
            postings = np.zeros(4, dtype=POSTING_DTYPE)
            postings["text"] = minhash
            out.append(postings)
        return out


class TestSingleFlight:
    def test_concurrent_misses_coalesce(self):
        inner = _SlowCountingReader()
        reader = CachedIndexReader(inner, capacity_bytes=1 << 20)
        threads = 8
        barrier = threading.Barrier(threads)
        outputs: list[np.ndarray | None] = [None] * threads

        def worker(slot: int) -> None:
            barrier.wait()
            outputs[slot] = reader.load_list(0, 42)

        pool = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        # Exactly one inner load; everyone else waited on the flight.
        assert inner.loads == {(0, 42): 1}
        assert reader.misses == 1
        assert reader.singleflight_waits == threads - 1
        assert reader.hits == threads - 1
        for output in outputs:
            assert output is not None and output.size == 4

    def test_distinct_keys_load_in_parallel(self):
        inner = _SlowCountingReader(delay=0.05)
        reader = CachedIndexReader(inner, capacity_bytes=1 << 20)
        keys = [(0, 1), (1, 2), (2, 3), (3, 4)]
        begin = time.perf_counter()
        pool = [
            threading.Thread(target=reader.load_list, args=key) for key in keys
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - begin
        assert all(inner.loads[key] == 1 for key in keys)
        # Serialized would be >= 4 * delay; parallel misses overlap.
        assert elapsed < 4 * inner.delay

    def test_loader_failure_does_not_poison(self):
        inner = _SlowCountingReader(delay=0.0, fail_first=True)
        reader = CachedIndexReader(inner, capacity_bytes=1 << 20)
        with pytest.raises(OSError):
            reader.load_list(0, 7)
        postings = reader.load_list(0, 7)
        assert postings.size == 4
        assert inner.loads[(0, 7)] == 2

    def test_overlapping_vector_loads_read_each_key_once(self):
        inner = _SlowCountingReader(delay=0.02)
        reader = CachedIndexReader(inner, capacity_bytes=1 << 20)
        threads = 8
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            # Each thread asks for a window of 6 keys out of 12, shifted
            # by its slot: every key is wanted by several threads at once.
            minhashes = (np.arange(6) + slot) % 12 + 100
            funcs = minhashes % 4
            try:
                barrier.wait()
                loaded = reader.load_list(funcs, minhashes)
                assert [int(p["text"][0]) for p in loaded] == minhashes.tolist()
                pinned = reader.pin(funcs[::-1], minhashes[::-1])
                assert pinned == [True] * 6
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the bookkeeping finely
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not errors
        assert sorted(inner.loads.values()) == [1] * 12
        stats = reader.stats()
        assert stats.misses == 12
        assert stats.hits == threads * 6 - 12
        assert stats.pinned_lists == 12

    def test_failing_vector_load_poisons_no_key(self):
        inner = _SlowCountingReader(delay=0.02, fail_first=True)
        reader = CachedIndexReader(inner, capacity_bytes=1 << 20)
        threads = 8
        barrier = threading.Barrier(threads)
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker() -> None:
            barrier.wait()
            try:
                loaded = reader.load_list(np.array([0, 1, 2]), np.array([5, 6, 7]))
                assert [int(p["text"][0]) for p in loaded] == [5, 6, 7]
                outcome = "ok"
            except OSError:
                outcome = "failed"
            with lock:
                outcomes.append(outcome)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(30)
        assert not any(thread.is_alive() for thread in pool)
        # Only the first loader sees its own failure; waiters retry, one
        # of them reloads, and no key is left in flight or failed.
        assert outcomes.count("failed") == 1 and outcomes.count("ok") == threads - 1
        assert inner.loads == {(0, 5): 2, (1, 6): 2, (2, 7): 2}
        assert not reader._inflight
        for postings in reader.load_list(np.array([0, 1, 2]), np.array([5, 6, 7])):
            assert postings.size == 4


# ----------------------------------------------------------------------
# Accounting fixes (hit/miss skew, sketch_list_lengths)
# ----------------------------------------------------------------------
class TestAccounting:
    def test_point_read_fallthrough_counts_miss(self, planted_index):
        reader = CachedIndexReader(planted_index)
        keys = np.asarray(planted_index.list_keys(0))
        minhash = int(keys[0])
        before = reader.stats()
        reader.load_texts_windows(0, minhash, [0])
        after_single = reader.stats()
        assert after_single.misses == before.misses + 1
        reader.load_texts_windows(0, minhash, np.array([0, 1]))
        after_batch = reader.stats()
        assert after_batch.misses == after_single.misses + 1
        # Once the full list is resident, the same reads count as hits.
        reader.load_list(0, minhash)
        hits_before = reader.stats().hits
        reader.load_texts_windows(0, minhash, [0])
        reader.load_texts_windows(0, minhash, np.array([0, 1]))
        assert reader.stats().hits == hits_before + 2

    def test_sketch_list_lengths_consults_cache(self, planted_index):
        reader = CachedIndexReader(planted_index)
        keys0 = np.asarray(planted_index.list_keys(0))
        sketch = np.zeros(planted_index.family.k, dtype=np.uint64)
        for func in range(planted_index.family.k):
            func_keys = np.asarray(planted_index.list_keys(func))
            sketch[func] = func_keys[0] if func_keys.size else 0
        expected = np.array(
            [
                planted_index.load_list(func, int(sketch[func])).size
                for func in range(planted_index.family.k)
            ],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(reader.sketch_list_lengths(sketch), expected)
        # With a list cached, the answer must be identical and come from
        # the resident copy.
        reader.load_list(0, int(keys0[0]))
        np.testing.assert_array_equal(reader.sketch_list_lengths(sketch), expected)


@pytest.mark.parametrize(
    "stats_class, derived",
    [(CacheStats, {"hit_rate"}), (ResultCacheStats, {"hit_rate"}), (LiveIndexStats, set())],
)
def test_to_dict_keys_are_the_fields(stats_class, derived):
    """A counter added to a stats dataclass reaches ``/stats`` unasked."""
    names = {spec.name for spec in dataclasses.fields(stats_class)}
    sample = stats_class(**{name: 0 for name in names})
    assert set(sample.to_dict()) == names | derived
