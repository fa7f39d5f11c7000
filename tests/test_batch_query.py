"""Tests for the batch query executor (`repro.query`).

The contract under test: batching is a *pure execution strategy* — for
every index type and searcher wrapper, matches are identical to a
per-query ``search`` loop.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.corpus.synthetic import synthweb
from repro.exceptions import InvalidParameterError, QueryError
from repro.index.builder import build_memory_index
from repro.index.cache import CachedIndexReader
from repro.index.lsm.live import LiveIndex, LiveIndexConfig, LiveSearcher
from repro.index.storage import DiskInvertedIndex, write_index
from repro.query.executor import PIN_FRACTION, BatchQueryExecutor
from repro.query.planner import plan_batch
from repro.query.resultcache import CachingSearcher
from repro.query.results import BatchStats


def match_set(result):
    return {
        (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
        for m in result.matches
        for r in m.rectangles
    }


def assert_same_results(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert match_set(a) == match_set(b)
        assert a.beta == b.beta and a.theta == b.theta


@pytest.fixture(scope="module")
def setup():
    data = synthweb(
        num_texts=150,
        mean_length=150,
        vocab_size=1024,
        duplicate_rate=0.2,
        span_length=48,
        mutation_rate=0.04,
        seed=7,
    )
    family = HashFamily(k=16, seed=3)
    index = build_memory_index(data.corpus, family, t=25, vocab_size=1024)
    return data.corpus, index, NearDuplicateSearcher(index)


@pytest.fixture(scope="module")
def backends(setup, tmp_path_factory):
    """The same index in memory, on disk raw and on disk packed."""
    _, index, _ = setup
    readers = {"memory": index}
    for codec in ("raw", "packed"):
        directory = tmp_path_factory.mktemp(f"batch-{codec}")
        write_index(index, directory, codec=codec)
        readers[f"disk-{codec}"] = DiskInvertedIndex(directory)
    return readers


@pytest.fixture(scope="module")
def live(setup, tmp_path_factory):
    """The corpus in a live index: one sealed run plus a memtable."""
    corpus, index, _ = setup
    texts = [np.asarray(text, dtype=np.uint32) for text in corpus]
    live = LiveIndex(
        tmp_path_factory.mktemp("batch-live"),
        family=index.family,
        t=index.t,
        vocab_size=1024,
        config=LiveIndexConfig(background_compaction=False),
    )
    half = len(texts) // 2
    live.append_texts(texts[:half])
    live.seal()
    live.append_texts(texts[half:])
    assert len(live.runs) == 1 and live.memtable_postings > 0
    yield live
    live.close()


@pytest.fixture(scope="module")
def make_searcher(setup, backends, live):
    """A fresh searcher per call, so no result memo outlives one use."""
    corpus, _, _ = setup

    def make(backend: str):
        if backend == "live":
            return LiveSearcher(live, corpus=corpus)
        if backend == "cached":
            return CachingSearcher(
                NearDuplicateSearcher(
                    CachedIndexReader(backends["disk-packed"]), corpus=corpus
                )
            )
        return NearDuplicateSearcher(backends[backend], corpus=corpus)

    return make


@pytest.fixture(scope="module")
def batch_queries(setup):
    corpus, _, _ = setup
    rng = np.random.default_rng(0)
    queries = [np.asarray(corpus[i])[:40] for i in range(12)]
    # Exact duplicates (the sketch-dedup path) ...
    queries += queries[:6]
    # ... and garbage queries with (almost surely) no match.
    queries += [
        rng.integers(0, 1024, size=40).astype(np.uint32) for _ in range(4)
    ]
    return queries


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("backend", ["memory", "disk-raw", "disk-packed"])
@pytest.mark.parametrize("chunk", [0, 1, 2, 4])
def test_every_setting_equals_sequential_loop(
    make_searcher, batch_queries, chunk, backend, verify
):
    """Every chunk size (0 = one chunk) over every index type."""
    direct = make_searcher(backend)
    expected = [direct.search(query, 0.8, verify=verify) for query in batch_queries]
    searcher = make_searcher(backend)
    with BatchQueryExecutor(searcher, batch_size=chunk or None) as executor:
        batch = executor.execute(batch_queries, 0.8, verify=verify)
    assert_same_results(expected, batch.results)
    assert batch.stats.queries == len(batch_queries)


@pytest.mark.parametrize("first_match_only", [False, True])
@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize(
    "backend", ["memory", "disk-raw", "disk-packed", "live", "cached"]
)
def test_every_backend_equals_sequential_loop(
    make_searcher, batch_queries, backend, verify, first_match_only
):
    options = {"verify": verify, "first_match_only": first_match_only}
    direct = make_searcher(backend)
    expected = [direct.search(query, 0.8, **options) for query in batch_queries]
    with BatchQueryExecutor(make_searcher(backend)) as executor:
        batch = executor.execute(batch_queries, 0.8, **options)
    assert_same_results(expected, batch.results)


class TestEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_matches_sequential(self, setup, batch_queries, batch_size):
        _, _, searcher = setup
        direct = [searcher.search(query, 0.8) for query in batch_queries]
        batch = BatchQueryExecutor(searcher, batch_size=batch_size).execute(
            batch_queries, 0.8
        )
        assert_same_results(direct, batch.results)
        assert batch.stats.queries == len(batch_queries)

    def test_first_match_only(self, setup, batch_queries):
        _, _, searcher = setup
        direct = [
            searcher.search(query, 0.8, first_match_only=True)
            for query in batch_queries
        ]
        batch = BatchQueryExecutor(searcher).execute(
            batch_queries, 0.8, first_match_only=True
        )
        assert_same_results(direct, batch.results)

    def test_verify_equivalence(self, setup, batch_queries):
        corpus, index, _ = setup
        searcher = NearDuplicateSearcher(index, corpus=corpus)
        direct = [searcher.search(query, 0.8, verify=True) for query in batch_queries]
        batch = BatchQueryExecutor(searcher).execute(batch_queries, 0.8, verify=True)
        assert_same_results(direct, batch.results)

    def test_batch_size_chunking(self, setup, batch_queries):
        _, _, searcher = setup
        whole = BatchQueryExecutor(searcher).execute(batch_queries, 0.8)
        chunked = BatchQueryExecutor(searcher, batch_size=5).execute(
            batch_queries, 0.8
        )
        assert_same_results(whole.results, chunked.results)
        assert chunked.stats.queries == len(batch_queries)

    def test_search_many_delegates(self, setup, batch_queries):
        _, _, searcher = setup
        direct = [searcher.search(q, 0.8) for q in batch_queries]
        assert_same_results(direct, searcher.search_many(batch_queries, 0.8))

    def test_empty_batch(self, setup):
        _, _, searcher = setup
        batch = BatchQueryExecutor(searcher).execute([], 0.8)
        assert batch.results == []

    def test_empty_query_raises(self, setup):
        _, _, searcher = setup
        empty = np.empty(0, dtype=np.uint32)
        with pytest.raises(QueryError):
            BatchQueryExecutor(searcher).execute([empty], 0.8)


class TestPlanner:
    def test_dedup_counts(self, setup, batch_queries):
        _, _, searcher = setup
        plan = plan_batch(searcher, batch_queries, 0.8)
        assert plan.num_queries == len(batch_queries)
        # 6 queries are byte-identical repeats of the first 6.
        assert plan.num_unique == len(batch_queries) - 6
        assert plan.lists_referenced >= len(plan.demand)

    def test_dedup_disabled(self, setup, batch_queries):
        _, _, searcher = setup
        plan = plan_batch(searcher, batch_queries, 0.8, dedup=False)
        assert plan.num_unique == len(batch_queries)

    def test_verify_dedup_keys_include_tokens(self, setup):
        _, _, searcher = setup
        # Same distinct-token set => same sketch, different token order.
        a = np.array([5, 6, 7, 8] * 10, dtype=np.uint32)
        b = np.array([8, 7, 6, 5] * 10, dtype=np.uint32)
        loose = plan_batch(searcher, [a, b], 0.8, verify=False)
        strict = plan_batch(searcher, [a, b], 0.8, verify=True)
        assert loose.num_unique == 1
        assert strict.num_unique == 2


class TestBatchStats:
    def test_dedup_and_pinning_save_io(self, setup, batch_queries):
        _, _, searcher = setup
        loop_io = sum(
            searcher.search(query, 0.8).stats.io_bytes for query in batch_queries
        )
        planned = BatchQueryExecutor(searcher).execute(batch_queries, 0.8)
        assert planned.stats.io_bytes < loop_io
        assert planned.stats.duplicate_queries == 6
        assert planned.stats.cache_hits > 0

    def test_format_is_printable(self, setup, batch_queries):
        _, _, searcher = setup
        batch = BatchQueryExecutor(searcher).execute(batch_queries, 0.8)
        text = batch.stats.format()
        assert "queries" in text and "deduped" in text
        assert str(batch.stats) == text

    def test_merge(self):
        a = BatchStats(queries=4, unique_queries=3, io_bytes=100)
        b = BatchStats(queries=2, unique_queries=2, io_bytes=50)
        a.merge(b)
        assert a.queries == 6 and a.unique_queries == 5 and a.io_bytes == 150
        # Every counter and time is summed, none dropped.
        summed = [spec.name for spec in dataclasses.fields(BatchStats)]
        a = BatchStats(**{name: slot + 1 for slot, name in enumerate(summed)})
        b = BatchStats(**{name: 100 * (slot + 1) for slot, name in enumerate(summed)})
        a.merge(b)
        for slot, name in enumerate(summed):
            assert getattr(a, name) == 101 * (slot + 1), name

    def test_num_matched(self, setup, batch_queries):
        _, _, searcher = setup
        batch = BatchQueryExecutor(searcher).execute(batch_queries, 0.8)
        expected = sum(
            bool(searcher.search(q, 0.8).matches) for q in batch_queries
        )
        assert batch.num_matched == expected


class _CountingReader:
    """Delegating proxy that counts full lists loaded from the index
    (``load_calls`` counts keys: a vector call loads one list per pair;
    ``read_calls`` counts the calls)."""

    def __init__(self, inner):
        self._inner = inner
        self.load_calls = 0
        self.read_calls = 0

    def load_list(self, func, minhash):
        self.load_calls += int(np.size(func))
        self.read_calls += 1
        return self._inner.load_list(func, minhash)

    def __getattr__(self, name):
        return getattr(self._inner, name)


#: QueryStats counters that do not depend on how warm the cache is.
_WARMTH_FREE = (
    "lists_loaded", "long_lists", "groups_scanned",
    "candidates", "texts_matched", "point_reads",
)


class TestPlannedCacheReuse:
    """An executor over an uncached searcher keeps one list cache for
    its lifetime instead of starting cold on every plan."""

    def test_second_execute_reads_nothing(self, setup, batch_queries):
        _, index, searcher = setup
        reader = _CountingReader(index)
        direct = [searcher.search(query, 0.8) for query in batch_queries]
        with BatchQueryExecutor(NearDuplicateSearcher(reader)) as executor:
            first = executor.execute(batch_queries, 0.8)
            cold_loads = reader.load_calls
            assert cold_loads > 0
            second = executor.execute(batch_queries, 0.8)
            assert reader.load_calls == cold_loads
        for batch in (first, second):
            assert_same_results(direct, batch.results)
            for expected, got in zip(direct, batch.results):
                for name in _WARMTH_FREE:
                    assert getattr(got.stats, name) == getattr(
                        expected.stats, name
                    ), name

    def test_later_chunks_reuse_earlier_loads(self, setup, batch_queries):
        _, index, _ = setup
        reader = _CountingReader(index)
        once = BatchQueryExecutor(NearDuplicateSearcher(reader))
        once.execute(batch_queries, 0.8)
        single_pass = reader.load_calls
        reader.load_calls = 0
        chunked = BatchQueryExecutor(
            NearDuplicateSearcher(reader), batch_size=len(batch_queries)
        )
        chunked.execute(batch_queries + batch_queries, 0.8)
        assert reader.load_calls == single_pass

    def test_close_drops_the_cache(self, setup, batch_queries):
        _, index, _ = setup
        reader = _CountingReader(index)
        executor = BatchQueryExecutor(NearDuplicateSearcher(reader))
        executor.execute(batch_queries, 0.8)
        cold_loads = reader.load_calls
        executor.close()
        executor.execute(batch_queries, 0.8)
        assert reader.load_calls == 2 * cold_loads


class TestPlanRunsAsBuilt:
    def test_one_inner_read_and_no_second_plan(
        self, setup, batch_queries, monkeypatch
    ):
        """A planned batch whose lists fit the cache reads all of them
        in one inner call, and runs the plan without sketching or
        looking up list lengths again."""
        _, index, searcher = setup
        direct = [searcher.search(query, 0.8) for query in batch_queries]
        counting = _CountingReader(index)
        cached = NearDuplicateSearcher(CachedIndexReader(counting))
        plan = plan_batch(cached, batch_queries, 0.8)

        def refuse(*args, **kwargs):
            raise AssertionError("the plan was computed again")

        monkeypatch.setattr(cached.family, "sketch", refuse)
        monkeypatch.setattr(counting, "sketch_list_lengths", refuse)
        batch = BatchQueryExecutor(cached).execute_plan(plan, 0.8)
        assert counting.read_calls == 1
        assert_same_results(direct, batch.results)
        assert batch.stats.lists_pinned == len(plan.demand)


class TestPinBudget:
    def test_small_cache_pins_within_its_own_budget(
        self, setup, batch_queries, monkeypatch
    ):
        """Pins are budgeted against the pinned reader's capacity, not
        the executor's default cache size."""
        _, index, searcher = setup
        direct = [searcher.search(query, 0.8) for query in batch_queries]
        sizes = plan_batch(searcher, batch_queries, 0.8).list_bytes.values()
        # Every list fits beside a full pin budget, but not all of them
        # fit in the cache at once.
        capacity = 2 * max(sizes)
        assert sum(sizes) > capacity
        reader = CachedIndexReader(index, capacity_bytes=capacity)
        pin = reader.pin
        pinned_after = []

        def recording_pin(funcs, minhashes):
            flags = pin(funcs, minhashes)
            pinned_after.append(reader.pinned_bytes)
            return flags

        monkeypatch.setattr(reader, "pin", recording_pin)
        batch = BatchQueryExecutor(NearDuplicateSearcher(reader)).execute(
            batch_queries, 0.8
        )
        assert_same_results(direct, batch.results)
        assert pinned_after
        assert 0 < max(pinned_after) <= PIN_FRACTION * reader.capacity_bytes
        assert reader.stats().admission_rejections == 0


class TestConcurrentBatchPins:
    """Two batches on one cached reader (a service's ``/batch`` beside
    its micro-batches): the batch that finishes first releases only its
    own pins."""

    def test_finished_batch_keeps_running_batch_pinned(self, setup, monkeypatch):
        corpus, index, _ = setup
        reader = CachedIndexReader(index)
        searcher = NearDuplicateSearcher(reader)
        executor = BatchQueryExecutor(searcher)
        plans = []
        for text_id in (0, 1):
            text = np.asarray(corpus[text_id])
            # Overlapping windows share lists, so the plan pins some.
            windows = [text[:40], text[2:42], text[4:44]]
            plans.append(plan_batch(searcher, windows, 0.8))
        search = searcher._search_planned
        parked, release = threading.Event(), threading.Event()

        def parking_search(entry, theta, **kwargs):
            if not parked.is_set():  # the first batch's first query
                parked.set()
                assert release.wait(30)
            return search(entry, theta, **kwargs)

        monkeypatch.setattr(searcher, "_search_planned", parking_search)
        outcome: list = []
        first = threading.Thread(
            target=lambda: outcome.append(executor.execute_plan(plans[0], 0.8))
        )
        first.start()
        try:
            assert parked.wait(30)
            held = reader.stats()
            assert held.pinned_lists > 0
            executor.execute_plan(plans[1], 0.8)
            after = reader.stats()
            assert after.pinned_lists == held.pinned_lists
            assert after.pinned_bytes == held.pinned_bytes
        finally:
            release.set()
            first.join(30)
        assert not first.is_alive() and len(outcome) == 1
        assert reader.stats().pinned_lists == 0


class TestExecuteThetas:
    def test_matches_search_thetas(self, setup, batch_queries):
        _, _, searcher = setup
        thetas = [1.0, 0.9, 0.8]
        per_query, stats = BatchQueryExecutor(searcher).execute_thetas(
            batch_queries, thetas
        )
        assert len(per_query) == len(batch_queries)
        for query, derived in zip(batch_queries, per_query):
            reference = searcher.search_thetas(query, thetas)
            for theta in thetas:
                assert match_set(reference[theta]) == match_set(derived[theta])

    def test_empty_thetas_rejected(self, setup):
        _, _, searcher = setup
        with pytest.raises(InvalidParameterError):
            BatchQueryExecutor(searcher).execute_thetas([], [])


class TestModeResolution:
    """There is one execution strategy; ``workers`` only names it."""

    def test_only_one_worker(self, setup):
        _, _, searcher = setup
        assert BatchQueryExecutor(searcher, workers=1).searcher is searcher
        for workers in (0, 2):
            with pytest.raises(InvalidParameterError, match="deleted"):
                BatchQueryExecutor(searcher, workers=workers)

    def test_parameter_validation(self, setup):
        _, _, searcher = setup
        with pytest.raises(InvalidParameterError):
            BatchQueryExecutor(searcher, workers=-1)
        with pytest.raises(InvalidParameterError):
            BatchQueryExecutor(searcher, batch_size=0)


class TestEngineFacade:
    def test_search_batch_matches_search(self):
        from repro.engine import NearDupEngine

        texts = [
            "the quick brown fox jumps over the lazy dog again and again",
            "the quick brown fox jumps over the lazy dog again and again",
            "a completely different document about near duplicate search",
            "near duplicate sequence search at scale for memorization",
        ] * 5
        engine = NearDupEngine.from_texts(texts, k=8, t=5, vocab_size=300)
        queries = [texts[0], texts[2], texts[0]]
        singles = [engine.search(q, 0.8) for q in queries]
        assert engine.search_batch(queries, 0.8) == singles

    def test_search_batch_raw_exposes_stats(self):
        from repro.engine import NearDupEngine

        texts = ["some repeated text body here okay"] * 8
        engine = NearDupEngine.from_texts(texts, k=8, t=3, vocab_size=300)
        batch = engine.search_batch_raw([texts[0]] * 4, 0.8)
        assert batch.stats.queries == 4
        assert batch.stats.unique_queries == 1


class TestSelectLongListsBatch:
    """The hoisted-cutoff refactor and the ``beta - 1`` correctness cap."""

    def test_static_cutoff_hoisted(self, setup):
        _, index, _ = setup
        searcher = NearDuplicateSearcher(index, long_list_cutoff=100)
        assert searcher._static_cutoff == 100
        lengths = np.array([50, 150, 99, 101] + [10] * (index.family.k - 4))
        assert searcher._effective_cutoff(lengths) == 100

    def test_heuristic_cutoff_stays_per_query(self, setup):
        _, index, _ = setup
        searcher = NearDuplicateSearcher(index)
        assert searcher._static_cutoff is None
        k = index.family.k
        small = np.array([10] * k)
        large = np.array([1000] * k)
        assert searcher._effective_cutoff(small) != searcher._effective_cutoff(
            large
        )

    def test_max_long_is_beta_minus_one(self, setup):
        _, index, _ = setup
        searcher = NearDuplicateSearcher(index, long_list_cutoff=1)
        k = index.family.k
        lengths = np.arange(10, 10 + k) * 100
        for beta in range(1, k + 1):
            chosen = searcher._select_long_lists(lengths, beta)
            assert len(chosen) == min(beta - 1, k)
            # The longest lists are preferred.
            expected = set(range(k - len(chosen), k))
            assert chosen == expected

    def test_beta_one_keeps_every_list_short(self, setup):
        _, index, _ = setup
        searcher = NearDuplicateSearcher(index, long_list_cutoff=1)
        lengths = np.array([1000] * index.family.k)
        assert searcher._select_long_lists(lengths, beta=1) == set()


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_texts=st.integers(min_value=10, max_value=40),
    vocab=st.integers(min_value=40, max_value=200),
)
def test_property_batch_equals_sequential(seed, num_texts, vocab):
    """The executor equals a per-query ``search`` loop across random
    corpora, including duplicate and empty-result queries."""
    rng = np.random.default_rng(seed)
    texts = [
        rng.integers(0, vocab, size=int(rng.integers(20, 80))).astype(np.uint32)
        for _ in range(num_texts)
    ]
    corpus = InMemoryCorpus(texts)
    family = HashFamily(k=8, seed=seed % 5)
    index = build_memory_index(corpus, family, t=10, vocab_size=vocab)
    searcher = NearDuplicateSearcher(index)

    queries = [np.asarray(corpus[i])[:20] for i in range(min(5, num_texts))]
    queries += queries[:2]  # duplicates in the batch
    queries.append(rng.integers(0, vocab, size=20).astype(np.uint32))
    queries.append((np.arange(20) % vocab).astype(np.uint32))

    reference = [searcher.search(query, 0.8) for query in queries]
    batch = BatchQueryExecutor(searcher).execute(queries, 0.8)
    assert_same_results(reference, batch.results)
