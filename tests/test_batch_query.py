"""Tests for the batch query executor (`repro.query`).

The contract under test: batching is a *pure execution strategy* — for
every index type and searcher wrapper, matches are identical to a
per-query ``search`` loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher, QueryStats
from repro.core.theory import collision_threshold
from repro.corpus.corpus import InMemoryCorpus
from repro.corpus.synthetic import synthweb
from repro.exceptions import InvalidParameterError, QueryError
from repro.index.builder import build_memory_index
from repro.index.cache import CachedIndexReader
from repro.index.inverted import POSTING_BYTES
from repro.index.lsm.live import LiveIndex, LiveIndexConfig, LiveSearcher
from repro.index.storage import DiskInvertedIndex, write_index
from repro.query.executor import BatchQueryExecutor
from repro.query.resultcache import CachingSearcher
from repro.query.results import BatchStats

from scan_oracle import ReferenceSearcher, scalar_split


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

    def make(backend: str, long_list_cutoff: int | None = None):
        if backend == "live":
            return LiveSearcher(live, corpus=corpus, long_list_cutoff=long_list_cutoff)
        if backend == "cached":
            return CachingSearcher(
                NearDuplicateSearcher(
                    CachedIndexReader(backends["disk-packed"]),
                    corpus=corpus,
                    long_list_cutoff=long_list_cutoff,
                )
            )
        return NearDuplicateSearcher(
            backends[backend], corpus=corpus, long_list_cutoff=long_list_cutoff
        )

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


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize(
    "backend", ["memory", "disk-raw", "disk-packed", "live", "cached"]
)
def test_every_backend_equals_sequential_loop(
    make_searcher, batch_queries, backend, verify, chunked
):
    direct = make_searcher(backend)
    expected = [direct.search(query, 0.8, verify=verify) for query in batch_queries]
    searcher = make_searcher(backend)
    with BatchQueryExecutor(searcher, batch_size=2 if chunked else None) as executor:
        batch = executor.execute(batch_queries, 0.8, verify=verify)
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
        plan = searcher.plan(batch_queries, 0.8)
        assert plan.num_queries == len(batch_queries)
        # 6 queries are byte-identical repeats of the first 6.
        assert plan.num_unique == len(batch_queries) - 6
        stats = BatchQueryExecutor(searcher).execute_plan(plan).stats
        assert stats.lists_referenced >= stats.distinct_lists > 0

    def test_verify_dedup_keys_include_tokens(self, setup):
        _, _, searcher = setup
        # Same distinct-token set => same sketch, different token order.
        a = np.array([5, 6, 7, 8] * 10, dtype=np.uint32)
        b = np.array([8, 7, 6, 5] * 10, dtype=np.uint32)
        loose = searcher.plan([a, b], 0.8, verify=False)
        strict = searcher.plan([a, b], 0.8, verify=True)
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
        # A list shared by several queries is read once.
        assert 0 < planned.stats.distinct_lists < planned.stats.lists_loaded

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
        plan = cached.plan(batch_queries, 0.8)

        def refuse(*args, **kwargs):
            raise AssertionError("the plan was computed again")

        monkeypatch.setattr(cached.family, "sketch", refuse)
        monkeypatch.setattr(counting, "sketch_list_lengths", refuse)
        batch = BatchQueryExecutor(cached).execute_plan(plan)
        assert counting.read_calls == 1
        assert_same_results(direct, batch.results)
        assert batch.stats.cache_misses == batch.stats.distinct_lists
        assert counting.load_calls == batch.stats.distinct_lists


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
            chosen = set(
                np.flatnonzero(searcher._select_long_lists(lengths, beta)).tolist()
            )
            assert len(chosen) == min(beta - 1, k)
            # The longest lists are preferred.
            expected = set(range(k - len(chosen), k))
            assert chosen == expected

    def test_beta_one_keeps_every_list_short(self, setup):
        _, index, _ = setup
        searcher = NearDuplicateSearcher(index, long_list_cutoff=1)
        lengths = np.array([1000] * index.family.k)
        assert not searcher._select_long_lists(lengths, beta=1).any()


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


#: Lengths that tie often, straddle the heuristic's floor of 64 and the
#: static cutoff of 100, and include empty lists.
_LENGTHS = st.sampled_from([0, 0, 1, 7, 8, 64, 65, 100, 101, 520, 520, 4000])


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.lists(_LENGTHS, min_size=16, max_size=16), min_size=1, max_size=6),
    cutoff=st.sampled_from([None, 0, 100]),
    beta=st.integers(1, 17),
)
def test_vectorized_split_equals_scalar_rule(setup, rows, cutoff, beta):
    """The batch split equals the one-query rule for every row: the
    heuristic, a disabled and a static cutoff, ties at the ``beta - 1``
    cap, all-zero rows."""
    _, index, _ = setup
    searcher = NearDuplicateSearcher(index, long_list_cutoff=cutoff)
    lengths = np.array(
        rows + [[0] * 16, [520] * 16, [4000] * 8 + [0] * 8], dtype=np.int64
    )
    mask = searcher._select_long_lists(lengths, beta)
    assert mask.shape == lengths.shape and mask.dtype == bool
    for row, chosen in zip(lengths, mask):
        assert np.flatnonzero(chosen).tolist() == scalar_split(row, beta, cutoff)
        assert np.array_equal(searcher._select_long_lists(row, beta), chosen)


#: Every ``QueryStats`` field but the clock and the I/O counters.
_CONTENT = tuple(
    spec.name
    for spec in dataclasses.fields(QueryStats)
    if not spec.name.startswith(("io_", "total_"))
)


def _assert_same_stats(expected, actual) -> None:
    """Matches and every non-timing counter equal, query by query."""
    assert_same_results(expected, actual)
    for direct, batched in zip(expected, actual):
        for name in _CONTENT:
            assert getattr(direct.stats, name) == getattr(batched.stats, name), name


class TestPlanCarriesItsParameters:
    """A plan runs at the threshold and ``verify`` it was planned for:
    running it cannot relabel its answers or verify answers it
    deduplicated without the tokens."""

    @pytest.fixture(scope="class")
    def wide(self):
        data = synthweb(
            num_texts=80,
            mean_length=150,
            vocab_size=1024,
            duplicate_rate=0.2,
            span_length=48,
            mutation_rate=0.04,
            seed=7,
        )
        index = build_memory_index(data.corpus, HashFamily(k=32, seed=3), t=25)
        return NearDuplicateSearcher(index, corpus=data.corpus)

    def test_plan_runs_at_its_theta(self, wide):
        queries = [np.asarray(wide.corpus[i], dtype=np.uint32)[:64] for i in range(8)]
        for theta in (0.5, 1.0):
            batch = BatchQueryExecutor(wide).execute_plan(wide.plan(queries, theta))
            expected = [wide.search(query, theta) for query in queries]
            assert_same_results(expected, batch.results)
            assert {(r.theta, r.beta) for r in batch.results} == {
                (theta, collision_threshold(32, theta))
            }
        assert any(r.matches for r in expected)

    def test_plan_runs_with_its_verify(self, wide):
        """Two queries with one sketch but different token sets share a
        row only in a plan without ``verify``."""
        family = wide.family
        query = np.asarray(wide.corpus[0], dtype=np.uint32)[:64]
        sketch = family.sketch(query)
        # Swap tokens that are no function's minimum for tokens hashing
        # above every minimum: the sketch stays, the token set does not.
        hashes = family.sketch_many(np.arange(1024, dtype=np.uint32)[:, None])
        spare = np.flatnonzero((hashes > sketch).all(axis=1))
        spare = spare[~np.isin(spare, query)][:12]
        other = query.copy()
        other[np.flatnonzero(~(hashes[query] == sketch).any(axis=1))[:12]] = spare
        assert np.array_equal(family.sketch(other), sketch)
        for theta in (0.8, 0.7, 0.6, 0.5):
            loose = wide.plan([query, other], theta)
            strict = wide.plan([query, other], theta, verify=True)
            assert (loose.num_unique, strict.num_unique) == (1, 2)
            for plan in (loose, strict):
                batch = BatchQueryExecutor(wide).execute_plan(plan)
                expected = [
                    wide.search(tokens, theta, verify=plan.verify)
                    for tokens in (query, other)
                ]
                assert_same_results(expected, batch.results)
            assert match_set(expected[0]) != match_set(expected[1])


class TestPinnedView:
    """The executor scans each plan as one batch over one read of its
    distinct lists; every query's answer and counters equal its direct
    search, the batch of one."""

    @pytest.fixture(scope="class")
    def mixed_queries(self, setup):
        """Windows at widths 32 and 64 (some repeated), at a cutoff of
        200 and theta 0.5: queries with no long list (one of which
        matches), with some, and at the ``beta - 1`` cap (the corpus's
        most frequent tokens), plus a query none of whose lists exist."""
        corpus = setup[0]
        tokens, counts = np.unique(
            np.concatenate([np.asarray(text) for text in corpus]), return_counts=True
        )
        widths = [32, 64, 32, 64, 32, 64, 32, 64]
        queries = [np.asarray(corpus[i])[:width] for i, width in enumerate(widths)]
        queries.append(np.asarray(corpus[112])[:40])
        queries.append(tokens[np.argsort(-counts, kind="stable")][:40].astype(np.uint32))
        queries += [queries[0], queries[3], queries[0]]
        queries.append(np.arange(5000, 5040, dtype=np.uint32))
        return queries

    def test_mixed_batch_equals_direct(self, make_searcher, mixed_queries):
        """One batch over every backend and wrapper, with and without
        ``verify``."""
        for backend in ("memory", "disk-packed", "cached", "live"):
            for verify in (False, True):
                searcher = make_searcher(backend, long_list_cutoff=200)
                plan = searcher.plan(mixed_queries, 0.5, verify=verify)
                longs = plan.long.sum(axis=1).tolist()
                assert 0 in longs and plan.beta - 1 in longs
                assert any(0 < count < plan.beta - 1 for count in longs)
                assert not plan.short[-1].any()
                assert plan.num_unique == len(mixed_queries) - 3
                expected = [
                    make_searcher(backend, long_list_cutoff=200).search(
                        query, 0.5, verify=verify
                    )
                    for query in mixed_queries
                ]
                assert any(r.matches and not r.stats.long_lists for r in expected)
                batch = BatchQueryExecutor(searcher).execute_plan(plan)
                _assert_same_stats(expected, batch.results)

    @pytest.mark.parametrize("cutoff", [None, 0, 1, 40])
    @pytest.mark.parametrize("theta", [0.5, 0.8, 1.0])
    def test_run_count_prune_equals_row_path(self, setup, batch_queries, cutoff, theta):
        """The scan prunes by lists per ``(query, text)``; the scalar
        oracle prunes each text by its windows (rows).  Same matches and
        counters, direct and batched, and the batch equals the direct
        search on every counter."""
        corpus, index, _ = setup
        queries = batch_queries + [np.asarray(corpus[i])[5:69] for i in range(20, 30)]
        searcher = NearDuplicateSearcher(index, long_list_cutoff=cutoff)
        rows = ReferenceSearcher(index, long_list_cutoff=cutoff)
        expected = [searcher.search(query, theta) for query in queries]
        batch = BatchQueryExecutor(searcher).execute(queries, theta)
        _assert_same_stats(expected, batch.results)
        assert any(result.matches for result in expected)
        for query, ours in zip(queries, expected):
            theirs = rows.search(query, theta)
            assert ours.matches == theirs.matches
            for name in ("groups_scanned", "candidates", "rows_scanned", "rows_kept"):
                assert getattr(ours.stats, name) == getattr(theirs.stats, name), name

    def test_members_share_the_batch(self, backends, batch_queries):
        """A member's time and reads are shares of the batch's scan, so
        the members' I/O sums to exactly the batch's."""
        index = backends["disk-raw"]
        searcher = NearDuplicateSearcher(
            CachedIndexReader(index, capacity_bytes=1 << 14), long_list_cutoff=40
        )
        plan = searcher.plan(batch_queries, 0.8)
        before = (index.io_stats.bytes_read, index.io_stats.read_calls)
        batch = BatchQueryExecutor(searcher).execute_plan(plan)
        unique = list({id(result): result for result in batch.results}.values())
        assert len(unique) == batch.stats.unique_queries
        assert sum(r.stats.point_reads for r in unique) > 0
        assert sum(r.stats.total_seconds for r in unique) <= batch.stats.execute_seconds
        assert batch.stats.io_bytes == index.io_stats.bytes_read - before[0] > 0
        assert batch.stats.io_calls == index.io_stats.read_calls - before[1]


class TestOneReadPerList:
    """A batch reads each of its distinct short lists once, with one
    ``load_list``: the cache counts one hit per resident list and one
    miss per cold one, and keeps the most-shared lists."""

    def test_cache_counts_each_distinct_list_once(self, setup, batch_queries):
        _, index, _ = setup
        searcher = NearDuplicateSearcher(CachedIndexReader(index), long_list_cutoff=0)
        executor = BatchQueryExecutor(searcher)
        cold = executor.execute(batch_queries, 0.8).stats
        assert cold.distinct_lists > 0
        assert (cold.cache_hits, cold.cache_misses) == (0, cold.distinct_lists)
        warm = executor.execute(batch_queries, 0.8).stats
        assert (warm.cache_hits, warm.cache_misses) == (warm.distinct_lists, 0)

    def test_overflowing_batch_keeps_its_most_demanded_lists(self, setup):
        corpus, index, searcher = setup
        # Overlapping windows share lists, some by many queries.
        queries = [
            np.asarray(corpus[text])[start : start + 40]
            for text in range(6)
            for start in range(0, 12, 3)
        ]
        plan = searcher.plan(queries, 0.8)
        demand: dict[tuple[int, int], int] = {}
        nbytes: dict[tuple[int, int], int] = {}
        for row, func in zip(*((plan.lengths > 0) & ~plan.long).nonzero()):
            key = (int(func), int(plan.sketches[row, func]))
            demand[key] = demand.get(key, 0) + 1
            nbytes[key] = int(plan.lengths[row, func]) * POSTING_BYTES
        assert len(set(demand.values())) > 2
        capacity = sum(nbytes.values()) // 3
        assert max(nbytes.values()) <= capacity
        reader = CachedIndexReader(index, capacity_bytes=capacity)
        BatchQueryExecutor(NearDuplicateSearcher(reader)).execute_plan(plan)
        resident = set(reader._lists)
        evicted = set(demand) - resident
        assert resident and evicted
        assert max(demand, key=demand.get) in resident
        assert min(demand[key] for key in resident) >= max(
            demand[key] for key in evicted
        )
